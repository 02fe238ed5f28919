"""The regularising chart (T, H; B, A) and the complete global flow.

On the near-collision domain the chart records time since pericenter (T),
energy (H), the unit Laplace-Runge-Lenz direction (A) and B = L A.  All
entries except T are constants of the motion, so in chart coordinates the
flow is the translation T -> T + t.  Collision states are glued in as the
set {(h, a)} = energy x direction, on which (T, B) = (0, 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from . import covering as cov
from . import integrate as ode
from .model import (
    AngularMomentum,
    DomainError,
    ModelParams,
    PhasePoint,
    angular_momentum,
    hamiltonian,
    l_squared_point,
    physical_field,
    potential,
)

# |<q,p>| below this fraction of ||q|| ||p|| counts as "on the pericentric
# surface" for the boolean predicate; the chart itself resolves the crossing
# by root finding, not by this tolerance.
PERICENTER_TOL = 1e-9

# a pericenter crossing with |Q| below this multiple of eps**(1/n) is
# classified as a collision (below the integration noise floor)
COLLISION_Q_TOL = 1e-9

_TIGHT = ode.IntegratorConfig(rel_tol=1e-12, abs_tol=1e-13)


class ChartDomainError(DomainError):
    """Point outside the chart domain U^eps."""


class NoPericenterError(ValueError):
    """(E, l2) admits no pericenter: E < 0 with supercritical angular momentum."""


@dataclass(frozen=True)
class ChartPoint:
    T: float
    H: float
    B: np.ndarray
    A: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "B", np.asarray(self.B, dtype=float))
        object.__setattr__(self, "A", np.asarray(self.A, dtype=float))

    def as_vector(self) -> np.ndarray:
        return np.concatenate([[self.T, self.H], self.B, self.A])


@dataclass(frozen=True)
class Regular:
    x: PhasePoint


@dataclass(frozen=True)
class Collision:
    h: float
    a: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", np.asarray(self.a, dtype=float))


ExtendedPoint = Union[Regular, Collision]


@dataclass(frozen=True)
class PericenterResult:
    frame: cov.PlaneFrame
    Q0: complex
    P0: complex
    T: float
    E: float
    is_collision: bool


def in_U_eps(params: ModelParams, x: PhasePoint) -> bool:
    """||q|| < eps and H > -Z / (2 n ||q||**alpha): the chart domain.

    The energy inequality excludes (too) low circular orbits, which have no
    unique pericenter, while every collision orbit satisfies it.
    """
    x.require_noncollision()
    if x.r >= params.eps:
        return False
    return hamiltonian(params, x) > -params.Z / (
        2.0 * params.n * x.r**params.alpha
    )


def on_S_eps(params: ModelParams, x: PhasePoint, tol: float = PERICENTER_TOL) -> bool:
    """In the chart domain and radially at rest: |<q,p>| < tol ||q|| ||p||."""
    if not in_U_eps(params, x):
        return False
    return abs(x.radial) < tol * x.r * np.linalg.norm(x.p)


def pericenter(
    params: ModelParams, x: PhasePoint, cfg: ode.IntegratorConfig | None = None
) -> PericenterResult:
    """Locate the unique pericenter (or collision) of the transit through x.

    Lifts to covering coordinates and integrates the extended flow to the
    first crossing of Re(P conj(Q)) = 0, backward when x is past its
    pericenter.  T is the physical time since that crossing, positive iff
    <q, p> > 0.
    """
    if not in_U_eps(params, x):
        raise ChartDomainError("pericenter search requires a point of U^eps")
    cfg = cfg or _TIGHT
    frame, y0, E = cov.lift_state(params, x)
    if abs(x.radial) < PERICENTER_TOL * x.r * np.linalg.norm(x.p):
        y1, T = y0, 0.0
    else:
        event = ode.EventSpec(
            g=lambda y: y[0] * y[2] + y[1] * y[3],  # Re(P conj(Q))
            direction=ode.ANY,
            name="pericenter",
        )
        tau_max = cov.tau_bound(params, abs(complex(y0[0], y0[1])))
        y1 = cov.transit(
            params, E, y0, -tau_max if x.radial > 0.0 else tau_max, (event,), cfg
        )
        T = -float(y1[4])
    Q0 = complex(y1[0], y1[1])
    is_col = abs(Q0) < COLLISION_Q_TOL * params.eps ** (1.0 / params.n)
    return PericenterResult(frame, Q0, complex(y1[2], y1[3]), T, E, is_col)


def _lrl_complex(params: ModelParams, P0: complex) -> complex:
    """Chart LRL value in the plane's complex coordinate.

    -P0**n rather than P0**n: the sign makes the n = 2 direction agree with
    the classical Kepler vector -(Z q/|q| + i p L), which points toward the
    pericenter.  The value is invariant under the covering transformations
    (multiplication by n-th roots of unity) either way.
    """
    return -(P0**params.n)


def _lrl_from_pericenter(params: ModelParams, res: PericenterResult) -> np.ndarray:
    V = _lrl_complex(params, res.P0)
    vec = res.frame.to_vector(V)
    norm = np.linalg.norm(vec)
    if norm == 0.0:
        raise RuntimeError("LRL vector vanished; P cannot vanish on the chart domain")
    return vec / norm


def b_vector(L: AngularMomentum, A: np.ndarray) -> np.ndarray:
    """B = L A; perpendicular to A by antisymmetry, ||B|| = scalar momentum."""
    return L.matrix @ np.asarray(A, dtype=float)


def chart_forward(
    params: ModelParams, x: PhasePoint, cfg: ode.IntegratorConfig | None = None
) -> ChartPoint:
    res = pericenter(params, x, cfg)
    A = _lrl_from_pericenter(params, res)
    L = angular_momentum(x)
    B = b_vector(L, A)
    return ChartPoint(T=res.T, H=res.E, B=B, A=A)


def r_min(params: ModelParams, E: float, l2: float) -> float:
    """Pericenter radius: the smallest r >= 0 with E r**2 + Z r**(2/n) = l2/(2m).

    For n = 2 the exact quadratic closed form is used (the bracketed solver
    loses half the digits at the circular-orbit double root); otherwise
    bisection plus Newton polish on the monotone branch below the
    centrifugal maximum.  For E < 0 with supercritical l2 there is no root.
    """
    if l2 < 0:
        raise ValueError("l2 must be non-negative")
    if params.n == 2:
        return r_min_kepler(params, E, l2)
    return _r_min_root(params, E, l2)


def _r_min_root(params: ModelParams, E: float, l2: float) -> float:
    """Bracketed root solve for the pericenter radius, any n >= 1."""
    m, Z, n = params.m, params.Z, params.n
    rhs = l2 / (2.0 * m)
    if rhs == 0.0:
        return 0.0

    def h(r: float) -> float:
        return E * r * r + Z * r ** (2.0 / n) - rhs

    def dh(r: float) -> float:
        return 2.0 * E * r + (2.0 * Z / n) * r ** (2.0 / n - 1.0)

    if n == 1:
        if E + Z <= 0.0:
            raise NoPericenterError("n = 1 requires positive kinetic energy E + Z")
        return float(np.sqrt(rhs / (E + Z)))

    if E < 0.0:
        # peak of E r^2 + Z r^(2/n) separates the two roots; take the smaller
        r_peak = (Z / (n * (-E))) ** (n / (2.0 * (n - 1.0)))
        if h(r_peak) < 0.0:
            raise NoPericenterError(
                f"no pericenter for E={E}, l2={l2}: angular momentum above the "
                "circular-orbit threshold"
            )
        hi = r_peak
    else:
        hi = 1.0
        while h(hi) < 0.0:
            hi *= 2.0
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if h(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-17 * max(hi, 1.0):
            break
    r = 0.5 * (lo + hi)
    for _ in range(4):  # Newton polish
        d = dh(r)
        if d == 0.0:
            break
        step = h(r) / d
        r_new = r - step
        if r_new <= 0.0 or not np.isfinite(r_new):
            break
        r = r_new
    return float(r)


def r_min_kepler(params: ModelParams, E: float, l2: float) -> float:
    """Closed-form Kepler pericenter radius (n = 2 only)."""
    if params.n != 2:
        raise ValueError("closed form only available for n = 2")
    m, Z = params.m, params.Z
    disc = Z * Z + 2.0 * E * l2 / m
    if disc < 0.0:
        raise NoPericenterError(f"no pericenter for E={E}, l2={l2}")
    # conjugate form of (-Z + sqrt(disc)) / (2E): no cancellation as E -> 0,
    # reduces to the parabolic branch l2/(2 m Z) at E = 0 exactly
    return float((l2 / m) / (Z + np.sqrt(disc)))


def kepler_time_closed_form(params: ModelParams, x: PhasePoint) -> float:
    """Time since pericenter for n = 2, by explicit antiderivatives.

    T = sign(<q,p>) * sqrt(m) * (G(||q||) - G(r_min)) where G is the
    antiderivative of r / sqrt(2 E r^2 + 2 Z r - l^2/m), evaluated per
    energy sign.
    """
    if params.n != 2:
        raise ValueError("closed-form pericenter time requires n = 2")
    if not in_U_eps(params, x):
        raise ChartDomainError("point outside the chart domain")
    m, Z = params.m, params.Z
    E = hamiltonian(params, x)
    c = l_squared_point(x) / m
    r0 = r_min_kepler(params, E, l_squared_point(x))
    r1 = x.r

    def radicand(r: float) -> float:
        return max(2.0 * E * r * r + 2.0 * Z * r - c, 0.0)

    # near-parabolic energies fall through to the E = 0 antiderivative: the
    # hyperbolic/elliptic branches divide by 2E and lose all digits there
    parabolic = abs(E) * r1 < 1e-10 * Z

    def G(r: float, s: float) -> float:
        if parabolic:
            return s * (Z * r + c) / (3.0 * Z * Z)
        if E > 0.0:
            root2e = np.sqrt(2.0 * E)
            return s / (2.0 * E) - Z / (2.0 * E * root2e) * np.log(
                2.0 * E * r + Z + root2e * s
            )
        disc = Z * Z + 2.0 * E * c
        arg = np.clip((2.0 * E * r + Z) / np.sqrt(disc), -1.0, 1.0)
        return s / (2.0 * E) + Z / (2.0 * E * np.sqrt(-2.0 * E)) * np.arcsin(arg)

    # the radical vanishes identically at the pericenter; evaluating it
    # there numerically leaves sqrt(roundoff) noise, so pass s = 0 exactly
    diff = G(r1, np.sqrt(radicand(r1))) - G(r0, 0.0)
    return float(np.sign(x.radial) * np.sqrt(m) * diff)


def _pericenter_axis(n: int) -> tuple[bool, float]:
    """Which pericenter axis A lies on, and with which sign.

    At a non-collision pericenter with frame (q_hat, p_hat) the chart LRL
    value is -(i ||p|| r^((n-1)/n))**n, i.e. -i**n times a positive real.
    So A = s * q_hat for n even and A = s * p_hat for n odd, with
    s = Re(-i**n) resp. Im(-i**n).
    """
    w = -(1j**n)
    if n % 2 == 0:
        return True, float(np.sign(w.real))
    return False, float(np.sign(w.imag))


def _collision_momentum_angle(n: int) -> float:
    """Angle of P0 in a frame with e1 = A for a collision pericenter.

    Solves P0**n = -|P0|**n in that frame; any root works (they differ by a
    covering transformation), and for n odd the real negative root keeps the
    whole trajectory on the e1-axis.
    """
    if n % 2 == 1:
        return np.pi
    return np.pi / n


def _launch_collision(
    params: ModelParams, h: float, a: np.ndarray
) -> tuple[cov.PlaneFrame, np.ndarray]:
    """Covering initial data (at the glued point itself) for Collision(h, a).

    K = 0 at Q = 0 fixes |P0|**2 = 2 m Z for n >= 2, where the energy term
    carries the factor |Q|**(2(n-1)) = 0, and |P0|**2 = 2 m (Z + h) for
    n = 1, where that factor is 1.
    """
    a = np.asarray(a, dtype=float)
    a_norm = np.linalg.norm(a)
    if not (np.isfinite(a_norm) and a_norm > 0.0):
        raise DomainError("collision direction a must be nonzero and finite")
    if params.n == 1 and not h > -params.Z:
        raise DomainError("an n = 1 collision launch needs kinetic energy h + Z > 0")
    e1 = a / a_norm
    e2 = cov._completion(e1)
    frame = cov.PlaneFrame(e1=e1, e2=e2)
    p_mag = np.sqrt(2.0 * params.m * (params.Z + h if params.n == 1 else params.Z))
    P0 = p_mag * np.exp(1j * _collision_momentum_angle(params.n))
    return frame, cov.covering_state_y(complex(0.0), complex(P0))


def chart_inverse(
    params: ModelParams, c: ChartPoint, cfg: ode.IntegratorConfig | None = None
) -> ExtendedPoint:
    """Reconstruct the phase-space point with chart image c.

    (T, B) = (0, 0) is the glued collision point itself.  Otherwise the
    pericenter state is rebuilt from (H, ||B||, A, B) and flowed by T,
    through collision when B = 0.
    """
    A = np.asarray(c.A, dtype=float)
    B = np.asarray(c.B, dtype=float)
    if abs(np.linalg.norm(A) - 1.0) > 1e-8:
        raise ValueError("A must be a unit vector")
    if abs(float(np.dot(A, B))) > 1e-8 * max(1.0, np.linalg.norm(B)):
        raise ValueError("B must be perpendicular to A")

    ell = float(np.linalg.norm(B))
    # reference angular-momentum scale on the chart domain
    ell_ref = params.eps * np.sqrt(
        2.0 * params.m * max(c.H + params.Z * params.eps**-params.alpha, params.Z)
    )
    collision_orbit = ell < 1e-12 * ell_ref
    if collision_orbit and c.T == 0.0:
        return Collision(h=c.H, a=A / np.linalg.norm(A))

    if collision_orbit:
        return global_flow(params, Collision(h=c.H, a=A), c.T, cfg)

    r0 = r_min(params, c.H, ell * ell)
    u_eff = c.H + potential(params, np.array([r0] + [0.0] * (params.d - 1)))
    if u_eff <= 0.0:
        raise ChartDomainError("reconstructed pericenter has no real momentum")
    p_mag = np.sqrt(2.0 * params.m * u_eff)
    on_q_axis, s = _pericenter_axis(params.n)
    B_hat = B / ell
    if on_q_axis:
        e1 = s * A
        e2 = s * B_hat
    else:
        e1 = -s * B_hat
        e2 = s * A
    x0 = PhasePoint(q=r0 * e1, p=p_mag * e2)
    if not in_U_eps(params, x0):
        raise ChartDomainError("chart point lies outside the image of the chart")
    if c.T == 0.0:
        return Regular(x0)
    if r0 > _switch_radius(params):
        return global_flow(params, Regular(x0), c.T, cfg)
    # deep pericenters: start the flow in covering coordinates with the
    # exact chart energy.  Building the physical pericenter state first and
    # letting global_flow recompute its energy loses the energy entirely at
    # small r0 (kinetic and potential are huge, nearly cancelling terms),
    # while |Q0| = r0**(1/n) and |P0|**2 = 2m(Z + H |Q0|**(2(n-1))) are
    # well conditioned for every r0 >= 0.
    cfg = cfg or _TIGHT
    frame = cov.PlaneFrame(e1=e1, e2=e2)
    q_mag = r0 ** (1.0 / params.n)
    P_mag = np.sqrt(
        2.0 * params.m * (params.Z + c.H * q_mag ** (2 * (params.n - 1)))
    )
    y0 = cov.covering_state_y(complex(q_mag), 1j * P_mag)
    state, used = _covering_segment(params, frame, y0, c.H, c.T, cfg)
    return global_flow(params, state, c.T - used, cfg)


def project_to_config(x: ExtendedPoint) -> np.ndarray:
    """Configuration-space projection; the whole glued set maps to the origin."""
    if isinstance(x, Regular):
        return x.x.q.copy()
    return np.zeros_like(x.a)


# ---------------------------------------------------------------------------
# global flow
# ---------------------------------------------------------------------------


def _switch_radius(params: ModelParams) -> float:
    return 0.5 * params.eps


def _covering_segment(
    params: ModelParams,
    frame: cov.PlaneFrame,
    y0: np.ndarray,
    E: float,
    t_budget: float,
    cfg: ode.IntegratorConfig,
) -> tuple[ExtendedPoint, float]:
    """Advance a near-origin segment by covering integration.

    Stops at the switch radius or when the physical-time budget is spent;
    returns the resulting extended point and the physical time consumed.
    """
    r_exit = _switch_radius(params)
    events = (
        cov.radius_event(params, r_exit),
        ode.EventSpec(g=lambda y: y[4] - t_budget, direction=ode.ANY, name="t-budget"),
    )
    tau_max = cov.tau_bound(params, r_exit ** (1.0 / params.n), slack=50.0)
    y1 = cov.transit(
        params, E, y0, tau_max if t_budget > 0 else -tau_max, events, cfg
    )
    used = float(y1[4])
    Q1 = complex(y1[0], y1[1])
    P1 = complex(y1[2], y1[3])
    if abs(Q1) < COLLISION_Q_TOL * params.eps ** (1.0 / params.n):
        # the budget ran out exactly at (numerically: on top of) the collision
        V = _lrl_complex(params, P1)
        a = frame.to_vector(V)
        return Collision(h=E, a=a / np.linalg.norm(a)), used
    qc, pc = cov.project(params, Q1, P1)
    return Regular(cov.plane_embed(frame, qc, pc)), used


def global_flow(
    params: ModelParams,
    x0: ExtendedPoint,
    t: float,
    cfg: ode.IntegratorConfig | None = None,
) -> ExtendedPoint:
    """Flow on the completed phase space: defined for every start and every t.

    Away from the origin the physical field is integrated directly; any
    segment that approaches the origin (including exact collisions) is
    carried by the covering flow, which is smooth there.
    """
    cfg = cfg or _TIGHT
    state: ExtendedPoint = Regular(x0) if isinstance(x0, PhasePoint) else x0
    if t == 0.0:
        return state
    d = params.d
    r_switch = _switch_radius(params)
    remaining = float(t)
    t_tol = 1e-13 * max(1.0, abs(t))
    field = physical_field(params)

    for _ in range(10_000):
        if abs(remaining) <= t_tol:
            return state
        if isinstance(state, Collision):
            frame, y0 = _launch_collision(params, state.h, state.a)
            state, used = _covering_segment(params, frame, y0, state.h, remaining, cfg)
            remaining -= used
            continue
        xp = state.x
        inward = np.sign(remaining) * xp.radial < 0.0
        if xp.r <= r_switch * (1.0 + 1e-12) and inward:
            frame, y0, E = cov.lift_state(params, xp)
            state, used = _covering_segment(params, frame, y0, E, remaining, cfg)
            remaining -= used
            continue
        events = (
            ode.EventSpec(
                g=lambda y: float(np.dot(y[:d], y[:d])) - r_switch * r_switch,
                direction=ode.DECREASING,
                name="enter",
            ),
        )
        traj = ode.integrate(
            field, np.concatenate([xp.q, xp.p]), (0.0, remaining), cfg, events=events
        )
        if traj.reason == ode.REASON_STEP_FAILURE:
            raise RuntimeError("physical integration failed away from the origin")
        y1 = traj.ys[-1]
        state = Regular(PhasePoint(y1[:d], y1[d:]))
        remaining -= float(traj.t_end)
        if traj.reason == ode.REASON_TIME_LIMIT:
            return state
    raise RuntimeError("global flow did not converge (too many segments)")
