"""The regularising chart (T, H; B, A) and the complete global flow.

On the near-collision domain the chart records time since pericenter (T),
energy (H), the unit Laplace-Runge-Lenz direction (A) and B = L A.  All
entries except T are constants of the motion, so in chart coordinates the
flow is the translation T -> T + t.  Collision states are glued in as the
set {(h, a)} = energy x direction, on which (T, B) = (0, 0).

The chart maps are ODE-free on every orbit, collision orbits included:
each orbit is a planar central-force orbit, so T and the angle swept since
the pericenter are radial integrals, taken by fixed-node quadrature.  The
covering ODE carries the global flow, and `pericenter` keeps the
covering-ODE route to the same pericenter.
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
)

# |<q,p>| below this fraction of ||q|| ||p|| counts as "on the pericentric
# surface" for the boolean predicate; the chart itself resolves the crossing
# by root finding, not by this tolerance.
PERICENTER_TOL = 1e-9

# a covering state with |Q| below this multiple of eps**(1/n) is classified
# as the collision itself (below the integration noise floor)
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


def on_S_eps(params: ModelParams, x: PhasePoint) -> bool:
    """In the chart domain and radially at rest: |<q,p>| < PERICENTER_TOL ||q|| ||p||."""
    if not in_U_eps(params, x):
        return False
    return abs(x.radial) < PERICENTER_TOL * x.r * np.linalg.norm(x.p)


def pericenter(params: ModelParams, x: PhasePoint) -> PericenterResult:
    """Locate the unique pericenter (or collision) of the transit through x.

    Lifts to covering coordinates and integrates the extended flow to the
    first crossing of Re(P conj(Q)) = 0, backward when x is past its
    pericenter.  T is the physical time since that crossing, positive iff
    <q, p> > 0.  The chart maps do not use it: it is an independent route
    to what `chart_forward` computes by quadrature.
    """
    if not in_U_eps(params, x):
        raise ChartDomainError("pericenter search requires a point of U^eps")
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
            params, E, y0, -tau_max if x.radial > 0.0 else tau_max, (event,), _TIGHT
        )
        T = -float(y1[4])
    return PericenterResult(frame, complex(y1[0], y1[1]), complex(y1[2], y1[3]), T)


def _lrl_complex(params: ModelParams, P0: complex) -> complex:
    """Chart LRL value in the plane's complex coordinate.

    -P0**n rather than P0**n: the sign makes the n = 2 direction agree with
    the classical Kepler vector -(Z q/|q| + i p L), which points toward the
    pericenter.  The value is invariant under the covering transformations
    (multiplication by n-th roots of unity) either way.
    """
    return -(P0**params.n)


def b_vector(L: AngularMomentum, A: np.ndarray) -> np.ndarray:
    """B = L A; perpendicular to A by antisymmetry, ||B|| = scalar momentum."""
    return L.matrix @ np.asarray(A, dtype=float)


# ---------------------------------------------------------------------------
# radial quadrature
# ---------------------------------------------------------------------------

# Gauss-Legendre rule on [0, 1] for the chart's radial integrals.  Their
# integrands are analytic in the node variable and G >= Z/2 keeps them away
# from any singularity, so the rule converges geometrically.
CHART_NODES = 32
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(CHART_NODES)
_NODES = 0.5 * (_NODES + 1.0)
_WEIGHTS = 0.5 * _WEIGHTS


class _RadialOrbit:
    """Radial integrals of one planar orbit in sigma = r**(2/n) = |Q|**2.

    The radicand factors exactly at the pericenter s0:

        r**2 p_r**2 = 2m (sigma - s0) G(sigma),   G = G0 + E sigma P(sigma),
        G0 = Z + E s0**(n-1),   P = sum_{k=1}^{n-1} sigma**(k-1) s0**(n-1-k),

    and G >= Z/2 on U^eps.  With sigma = s0 + u**2 v**2, every integral from
    the pericenter out to u = sqrt(sigma - s0) is an integral over v in
    [0, 1] of a smooth function, taken on the fixed nodes.
    """

    def __init__(self, params: ModelParams, E: float, l: float) -> None:
        self.n, self.E, self.l = params.n, E, l
        self.root2m = np.sqrt(2.0 * params.m)
        self.s0 = _sigma_min(params, E, l * l)
        self.G0 = params.Z + E * self.s0 ** (params.n - 1)
        self.K = params.n * params.m / self.root2m

    def _P(self, sigma):
        P = 0.0 if self.n == 1 else 1.0
        for j in range(self.n - 2):
            P = P * sigma + self.s0 ** (j + 1)
        return P

    def G(self, sigma):
        return self.G0 + self.E * sigma * self._P(sigma)

    def rate(self, u: float) -> float:
        """dT/du = K sigma**(n-1) / sqrt(G) with K = n m / sqrt(2m)."""
        sigma = self.s0 + u * u
        return float(self.K * sigma ** (self.n - 1) / np.sqrt(self.G(sigma)))

    def time(self, u: float) -> float:
        """Time from the pericenter out to u."""
        sigma = self.s0 + (u * _NODES) ** 2
        vals = sigma ** (self.n - 1) / np.sqrt(self.G(sigma))
        return float(self.K * u * np.dot(_WEIGHTS, vals))

    def angle(self, u: float) -> float:
        """Polar angle swept from the pericenter out to u.

        1/(sigma sqrt(G)) splits into 1/(sigma sqrt(G0)), whose integral is
        the arctan term because l**2 = 2m s0 G0, and a remainder carrying
        (G0 - G)/sigma = -E P.  Both stay smooth as l -> 0, where the sweep
        tends to n pi/2.
        """
        sigma = self.s0 + (u * _NODES) ** 2
        P = self._P(sigma)
        rG = np.sqrt(self.G0 + self.E * sigma * P)
        rG0 = np.sqrt(self.G0)
        rest = np.dot(_WEIGHTS, -self.E * P / (rG * rG0 * (rG + rG0)))
        return float(
            self.n * (np.arctan2(u, np.sqrt(self.s0)) + self.l * u / self.root2m * rest)
        )

    def solve_time(self, t: float, u_max: float, t_max: float) -> float:
        """u in [0, u_max] with time(u) = t, where time(u_max) = t_max >= t.

        Newton on the increasing time(u), with a bisection step whenever
        Newton would leave the bracket.
        """
        lo, hi = 0.0, u_max
        u = u_max * t / t_max
        for _ in range(100):
            f = self.time(u) - t
            if f == 0.0:
                break
            if f < 0.0:
                lo = u
            else:
                hi = u
            rate = self.rate(u)
            u_new = u - f / rate if rate > 0.0 else lo
            if not lo < u_new < hi:
                u_new = 0.5 * (lo + hi)
            if abs(u_new - u) <= 1e-15 * u_new:
                return u_new
            u = u_new
        return u


def chart_forward(params: ModelParams, x: PhasePoint) -> ChartPoint:
    """Chart image (T, H; B, A) of x, by quadrature of the radial integrals.

    In the `plane_reduce` frame x lies at angle 0 and its orbit turns with
    l = Im(conj(qc) pc) >= 0, taken from the explicit projection (the
    Lagrange-identity l**2 carries relative noise 1e-16 / sin**2 of the
    angle between q and p).  The pericenter lies at the swept angle behind
    x when <q,p> > 0 and ahead of it otherwise; T is positive iff <q,p> > 0.
    """
    if not in_U_eps(params, x):
        raise ChartDomainError("the chart requires a point of U^eps")
    n = params.n
    frame, qc, pc = cov.plane_reduce(x)
    E = hamiltonian(params, x)
    orbit = _RadialOrbit(params, E, (qc.conjugate() * pc).imag)
    # u = sqrt(sigma - s0) from <q,p> = r p_r, free of cancellation near s0
    u = abs(x.radial) / (orbit.root2m * np.sqrt(orbit.G(x.r ** (2.0 / n))))
    sign = float(np.sign(x.radial))
    phi = -sign * orbit.angle(u)
    # the pericenter momentum has direction i e^(i phi); lift it to the branch
    # at angle phi/n
    A = frame.to_vector(_lrl_complex(params, 1j * np.exp(1j * phi / n)))
    B = b_vector(angular_momentum(x), A)
    return ChartPoint(T=sign * orbit.time(u), H=E, B=B, A=A)


def r_min(params: ModelParams, E: float, l2: float) -> float:
    """Pericenter radius: the smallest r >= 0 with E r**2 + Z r**(2/n) = l2/(2m).

    For n = 2 the exact quadratic closed form is used; otherwise monotone
    Newton in sigma = r**(2/n).  For E < 0 with supercritical l2 there is no
    root.
    """
    return _sigma_min(params, E, l2) ** (params.n / 2.0)


def _sigma_min(params: ModelParams, E: float, l2: float) -> float:
    """sigma = r**(2/n) at the pericenter."""
    if l2 < 0:
        raise ValueError("l2 must be non-negative")
    if params.n == 2:
        return r_min_kepler(params, E, l2)
    return _sigma_root(params, E, l2)


def _r_min_root(params: ModelParams, E: float, l2: float) -> float:
    """Pericenter radius by the Newton solver, any n >= 1."""
    return _sigma_root(params, E, l2) ** (params.n / 2.0)


def _sigma_root(params: ModelParams, E: float, l2: float) -> float:
    """Smallest root of f(s) = E s**n + Z s - l2/(2m), s = r**(2/n), by Newton.

    s = l2/(2 m Z) is the root at E = 0 and the start.  Below the
    centrifugal maximum f is increasing, concave for E < 0 and convex for
    E > 0, so the iterates climb to the root from below (E < 0) or descend
    to it from above (E > 0).  The solve stops at the first step that no
    longer moves that way.
    """
    m, Z, n = params.m, params.Z, params.n
    rhs = l2 / (2.0 * m)
    if rhs == 0.0:
        return 0.0
    if n == 1:
        if E + Z <= 0.0:
            raise NoPericenterError("n = 1 requires positive kinetic energy E + Z")
        return rhs / (E + Z)
    if E < 0.0:
        # the maximum of E s**n + Z s separates the two roots
        s_peak = (Z / (n * -E)) ** (1.0 / (n - 1.0))
        peak = E * s_peak**n + Z * s_peak
        if peak < rhs:
            raise NoPericenterError(
                f"no pericenter for E={E}, l2={l2}: angular momentum above the "
                "circular-orbit threshold"
            )
        if peak == rhs:
            # circular orbit: a double root, where Newton stalls ~sqrt(eps) short
            return float(s_peak)
    s = rhs / Z
    direction = 0.0
    for _ in range(200):
        step = (E * s**n + Z * s - rhs) / (n * E * s ** (n - 1) + Z)
        if step == 0.0 or direction * step > 0.0:
            break
        direction = -np.sign(step)
        s -= step
    return float(s)


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


def _kepler_series(terms: int = 18) -> tuple[np.ndarray, np.ndarray]:
    """Power series at x = 0 of f(x) = asinh(sqrt(x))/sqrt(x) and
    g(x) = (sqrt(1 + x) - f(x)) / (2x), valid for either sign of x."""
    c, b = [1.0], [1.0]  # asin(y)/y in y**2, and binomial(1/2, j)
    for j in range(terms):
        c.append(c[-1] * (2 * j + 1) ** 2 / ((2 * j + 2) * (2 * j + 3)))
        b.append(b[-1] * (0.5 - j) / (j + 1))
    f = [(-1) ** j * c[j] for j in range(terms)]
    g = [0.5 * (b[j + 1] - (-1) ** (j + 1) * c[j + 1]) for j in range(terms)]
    return np.array(f), np.array(g)


_KEPLER_F, _KEPLER_G = _kepler_series()


def kepler_time_closed_form(params: ModelParams, x: PhasePoint) -> float:
    """Time since pericenter for n = 2, by explicit antiderivatives.

    With r = r_min + w**2 the radicand factors as
    2 E r**2 + 2 Z r - l**2/m = 2 w**2 (k + E w**2), k = Z + 2 E r_min, so

        |T| = sqrt(2m) int_0^w (r_min + s**2) / sqrt(k + E s**2) ds
            = sqrt(2m) (w / sqrt(k)) (r_min f(x) + w**2 g(x)),  x = E w**2 / k,

    with f(x) = asin(sqrt(-x))/sqrt(-x) for E < 0, where sqrt(-x) is the
    sine of half the eccentric anomaly, f(x) = asinh(sqrt(x))/sqrt(x) for
    E > 0, and g(x) = (sqrt(1 + x) - f(x)) / (2x).  Near x = 0 these closed
    forms cancel, and their power series are summed instead.  w is taken
    from <q,p> = r p_r, which has no cancellation near the pericenter.
    """
    if params.n != 2:
        raise ValueError("closed-form pericenter time requires n = 2")
    if not in_U_eps(params, x):
        raise ChartDomainError("point outside the chart domain")
    m, Z = params.m, params.Z
    E = hamiltonian(params, x)
    r0 = r_min_kepler(params, E, l_squared_point(x))
    w = abs(x.radial) / np.sqrt(2.0 * m * (Z + E * (x.r + r0)))
    k = Z + 2.0 * E * r0
    xk = E * w * w / k
    if abs(xk) < 0.1:
        f = np.polynomial.polynomial.polyval(xk, _KEPLER_F)
        g = np.polynomial.polynomial.polyval(xk, _KEPLER_G)
    else:
        y = np.sqrt(abs(xk))
        f = (np.arcsinh(y) if xk > 0.0 else np.arcsin(y)) / y
        g = (np.sqrt(1.0 + xk) - f) / (2.0 * xk)
    T = np.sqrt(2.0 * m) * w / np.sqrt(k) * (r0 * f + w * w * g)
    return float(np.sign(x.radial) * T)


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


def chart_inverse(params: ModelParams, c: ChartPoint) -> ExtendedPoint:
    """Reconstruct the phase-space point with chart image c.

    (T, B) = (0, 0) is the glued collision point itself.  Every other point,
    collision orbits (B = 0) included, solves |T| = time(u) on the radial
    quadrature and is rebuilt at the swept angle in the pericenter frame
    spanned by A and B.
    """
    A = np.asarray(c.A, dtype=float)
    B = np.asarray(c.B, dtype=float)
    if abs(np.linalg.norm(A) - 1.0) > 1e-8:
        raise ValueError("A must be a unit vector")
    if abs(float(np.dot(A, B))) > 1e-8 * max(1.0, np.linalg.norm(B)):
        raise ValueError("B must be perpendicular to A")

    ell = float(np.linalg.norm(B))
    if ell == 0.0 and c.T == 0.0:
        return Collision(h=c.H, a=A / np.linalg.norm(A))

    n = params.n
    if n == 1 and c.H <= -0.5 * params.Z:
        raise ChartDomainError("H lies below the chart domain's energy floor -Z/2")
    orbit = _RadialOrbit(params, c.H, ell)
    # the orbit's part in U^eps: r < eps and, for H < 0, H > -Z / (2 n r**alpha)
    s_max = params.eps ** (2.0 / n)
    if c.H < 0.0 and n > 1:
        s_max = min(s_max, (params.Z / (2.0 * n * -c.H)) ** (1.0 / (n - 1.0)))
    if orbit.s0 >= s_max:
        raise ChartDomainError("reconstructed pericenter lies outside the chart domain")
    u_max = np.sqrt(s_max - orbit.s0)
    t_max = orbit.time(u_max)
    if abs(c.T) >= t_max:
        raise ChartDomainError("chart point lies outside the image of the chart")
    u = orbit.solve_time(abs(c.T), u_max, t_max)
    sigma = orbit.s0 + u * u
    r = sigma ** (n / 2.0)
    sign = float(np.sign(c.T))
    p_r = sign * u * orbit.root2m * np.sqrt(orbit.G(sigma)) / r
    turn = np.exp(1j * sign * orbit.angle(u))
    # pericenter frame: e1 along q, e2 along p there
    on_q_axis, s = _pericenter_axis(n)
    # a collision orbit sweeps n quarter turns and lies on the line of A,
    # whichever unit vector stands in for B / |B|
    B_hat = B / ell if ell > 0.0 else cov._completion(A)
    if on_q_axis:
        e1, e2 = s * A, s * B_hat
    else:
        e1, e2 = -s * B_hat, s * A
    frame = cov.PlaneFrame(e1=e1, e2=e2)
    return Regular(cov.plane_embed(frame, r * turn, (p_r + 1j * ell / r) * turn))


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
