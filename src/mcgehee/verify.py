"""Numerical certification of the chart's canonical structure.

Finite-difference Poisson brackets of the chart functions (T, H, A, B),
the Dirac bracket induced on T*S^(d-1), conservation drifts along
trajectories, the uniform transit-time bound for the near-collision
domain, and the even/odd parity of asymptotic directions at energy zero.

Bracket convention (fixed throughout):

    {f, g} := sum_i (df/dp_i * dg/dq_i - df/dq_i * dg/dp_i),

so that dF/dt = {H, F} along the flow, {H, T} = +1 and {p_1, q_1} = +1.
Under this convention the (A, B) algebra closes with a global sign on the
mixed and momentum-momentum families,

    {A_i, B_j} = -(delta_ij - A_i A_j),    {B_i, B_j} = -L_ij,

with L_ij = q_j p_i - q_i p_j; flipping the bracket convention flips these
back but also flips {H, T} to -1.  The reports below keep {H, T} = +1 and
record the measured family sign explicitly instead of absorbing it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

import numpy as np

from . import chart, covering as cov, integrate as ode
from .model import (
    ModelParams,
    PhasePoint,
    angular_momentum,
    hamiltonian,
    l_squared_point,
    physical_field,
    row_dot,
)

# default finite-difference step as a fraction of the local coordinate
# scale: rounding in the chart values grows like 1/step, and a larger step
# differences more near-collision points across the collision orbits
DEFAULT_STEP_FRACTION = 1e-4


def _coordinate_scales(z: np.ndarray, d: int) -> np.ndarray:
    """Per-coordinate step scales: position block and momentum block; inf
    where a norm overflows, which the chart then refuses."""
    with np.errstate(over="ignore"):
        q_scale = max(float(np.linalg.norm(z[:d])), 1e-3)
        p_scale = max(float(np.linalg.norm(z[d:])), 1.0)
    return np.concatenate([np.full(d, q_scale), np.full(d, p_scale)])


def _gradient(f: Callable[[np.ndarray], np.ndarray], z: np.ndarray, h: np.ndarray):
    """4th-order central-difference gradient, Richardson-extrapolated.

    f maps a (k, len(z)) array of points to the (k, m) array of its m
    components there, and is called once: on the whole stencil, 8 points
    per coordinate, and on z itself.  Returns the (m, len(z)) Jacobian,
    whose row a is the gradient of component a, and f(z).
    """
    size = len(z)
    steps = np.stack([0.5 * h, h], axis=1)  # the Richardson pair per coordinate
    points = np.empty((8 * size + 1, size))
    points[:] = z  # the stencil, then z itself
    coord = np.arange(size)
    points[:-1].reshape(size, 2, 4, size)[coord, :, :, coord] += np.array([-2.0, -1.0, 1.0, 2.0]) * steps[:, :, None]
    vals = f(points)
    v = vals[:-1].reshape(size, 2, 4, -1)
    diff = (v[:, :, 0] - 8.0 * v[:, :, 1] + 8.0 * v[:, :, 2] - v[:, :, 3]) / (
        12.0 * steps[:, :, None]
    )
    return ((16.0 * diff[:, 0] - diff[:, 1]) / 15.0).T, vals[-1]


def _brackets(J: np.ndarray, d: int) -> np.ndarray:
    """Matrix of every {f_a, f_b}, where row a of J is the gradient of f_a.

    {f_a, f_b} = <df_a/dp, df_b/dq> - <df_a/dq, df_b/dp>, so the matrix is
    J_p J_q^T - J_q J_p^T.
    """
    Jq, Jp = J[:, :d], J[:, d:]
    return Jp @ Jq.T - Jq @ Jp.T


@dataclass(frozen=True)
class BracketEntry:
    names: tuple[str, str]
    computed: float
    expected: float

    @property
    def residual(self) -> float:
        return abs(self.computed - self.expected)


@dataclass(frozen=True, slots=True)
class BracketReport:
    """All pairwise brackets among {T, H, A_i, B_i} plus the L_ij algebra.

    Kept compact, since callers may hold many reports: a names tuple shared
    by all reports of the same d and arrays of the computed and expected
    values.  `entries` builds the per-pair view on demand.
    """

    names: tuple[tuple[str, str], ...]
    computed: np.ndarray
    expected: np.ndarray
    ab_sign: float = 0.0  # measured sign of {A_i,B_j} vs (delta_ij - A_i A_j)
    bb_sign: float = 0.0  # measured sign of {B_i,B_j} vs L_ij
    ll_sign: float = 0.0  # measured sign of the L_ij structure constants; 0 in d = 2

    @property
    def entries(self) -> list[BracketEntry]:
        return [
            BracketEntry(nm, float(c), float(e))
            for nm, c, e in zip(self.names, self.computed, self.expected)
        ]

    @property
    def max_residual(self) -> float:
        return float(np.max(np.abs(self.computed - self.expected), initial=0.0))


def _family_sign(computed: np.ndarray, expected: np.ndarray) -> float:
    """Global sign s minimising sum |computed - s*expected| over the family.

    0 for an empty family: there is nothing to measure.
    """
    if expected.size == 0:
        return 0.0
    if (np.abs(expected) < 1e-12).all():
        return 1.0
    plus = np.abs(computed - expected).sum()
    minus = np.abs(computed + expected).sum()
    return 1.0 if plus <= minus else -1.0


@functools.cache
def _table_layout(d: int) -> tuple:
    """Rows of `bracket_table` in report order, and its index arrays.

    Returns the (f_a, f_b) names of every row, the indices a and b of f_a
    and f_b in the chart vector (T, H, A, B, L), the family of the row:
    0 for {H, T} and the vanishing pairs, then 1 (A, B), 2 (B, B), 3 (L, L),
    the rows of families 1-3 as masks, and i and j of each L_ij, i < j.
    """
    A = [f"A_{i}" for i in range(d)]
    B = [f"B_{i}" for i in range(d)]
    L = [f"L_{i}{j}" for i, j in combinations(range(d), 2)]
    rows = [("H", "T", 0)]
    for i in range(d):
        rows += [(f, g[i], 0) for f in "HT" for g in (A, B)]
    rows += [(f, g, 0) for f, g in combinations(A, 2)]
    rows += [(f, g, 1) for f in A for g in B]
    rows += [(f, g, 2) for f, g in combinations(B, 2)]
    rows += [(f, g, 3) for f, g in combinations(L, 2)]
    index = {f: k for k, f in enumerate(["T", "H", *A, *B, *L])}
    a, b, family = np.array([(index[f], index[g], fam) for f, g, fam in rows]).T
    members = tuple(family == f for f in (1, 2, 3))
    pi, pj = np.triu_indices(d, 1)
    for v in (a, b, family, *members, pi, pj):
        v.setflags(write=False)  # cached: shared by every report of this d
    return tuple((f, g) for f, g, _ in rows), a, b, family, members, pi, pj


def bracket_table(params: ModelParams, x: PhasePoint) -> BracketReport:
    """Brackets of the chart functions at x, compared to their closed forms.

    The chart vector is (T, H, A, B) followed by L_ij = q_j p_i - q_i p_j
    for i < j, so one stencil gives every row, and one call of
    `chart.chart_forward_rows` evaluates it on the whole stencil and at x.
    The mixed family {A_i,B_j}, the momentum family {B_i,B_j} and the
    angular-momentum structure constants

        {L_ij, L_kl} = s * (delta_il L_jk - delta_ik L_jl
                            - delta_jl L_ik + delta_jk L_il)

    are compared up to a single measured global sign per family, recorded
    on the report (the closed forms fix them only up to the
    bracket-convention parity).
    """
    d = params.d
    names, a, b, family, members, pi, pj = _table_layout(d)
    z0 = np.concatenate([x.q, x.p])
    h = DEFAULT_STEP_FRACTION * _coordinate_scales(z0, d)

    def chart_vec(z: np.ndarray) -> np.ndarray:
        c = chart.chart_forward_rows(params, z)
        L = z[:, pj] * z[:, d + pi] - z[:, pi] * z[:, d + pj]
        return np.column_stack([c.T, c.H, c.A, c.B, L])

    J, centre = _gradient(chart_vec, z0, h)
    M = _brackets(J, d)
    # the closed forms in the index layout of chart_vec, before the family signs
    A = centre[2 : 2 + d]
    L = angular_momentum(x).matrix
    delta = np.eye(d)
    i, j, k, l = pi[:, None], pj[:, None], pi, pj
    E = np.zeros_like(M)
    E[1, 0] = 1.0  # {H, T}
    E[2 : 2 + d, 2 + d : 2 + 2 * d] = delta - np.outer(A, A)
    E[2 + d + pi, 2 + d + pj] = L[pi, pj]
    E[2 + 2 * d :, 2 + 2 * d :] = (
        delta[i, l] * L[j, k]
        - delta[i, k] * L[j, l]
        - delta[j, l] * L[i, k]
        + delta[j, k] * L[i, l]
    )
    computed, expected = M[a, b], E[a, b]
    ab_sign, bb_sign, ll_sign = (_family_sign(computed[f], expected[f]) for f in members)
    expected *= np.array([1.0, ab_sign, bb_sign, ll_sign])[family]
    return BracketReport(
        names, computed, expected, ab_sign=ab_sign, bb_sign=bb_sign, ll_sign=ll_sign
    )


@dataclass(frozen=True)
class DiracReport:
    entries: list[BracketEntry]
    qp_sign: float  # measured sign of {q_i,p_k}_Dirac vs (delta_ik - q_i q_k)
    c_measured: float  # {F1, F2}(x); -2 on the unit sphere bundle

    @property
    def max_residual(self) -> float:
        return max((e.residual for e in self.entries), default=0.0)


def constraint_f1(z: np.ndarray):
    """F1 = <q,q> - 1 of z = (q, p), or of each row of a stack of them."""
    d = z.shape[-1] // 2
    return row_dot(z[..., :d], z[..., :d]) - 1.0


def constraint_f2(z: np.ndarray):
    """F2 = <q,p> of z = (q, p), or of each row of a stack of them."""
    d = z.shape[-1] // 2
    return row_dot(z[..., :d], z[..., d:])


def dirac_bracket_check(x: PhasePoint) -> DiracReport:
    """Dirac brackets of the coordinate functions on T*S^(d-1).

    {a,b}_Dirac = {a,b} + (1/c) ({a,F1}{F2,b} - {a,F2}{F1,b}) with the
    normalisation c = {F1,F2}(x) measured rather than assumed, so the
    result is convention-independent up to the same global sign as the
    (A, B) table: {q_i,q_k} = 0, {q_i,p_k} = s*(delta_ik - q_i q_k),
    {p_i,p_k} = q_i p_k - q_k p_i.
    """
    d = len(x.q)
    z0 = np.concatenate([x.q, x.p])
    if abs(constraint_f1(z0)) > 1e-10 or abs(constraint_f2(z0)) > 1e-10:
        raise ValueError("point is not on the unit sphere bundle T*S^(d-1)")
    h = DEFAULT_STEP_FRACTION * _coordinate_scales(z0, d)

    # the coordinate functions z_0 .. z_(2d-1), then F1 and F2
    def fns(z: np.ndarray) -> np.ndarray:
        return np.column_stack([z, constraint_f1(z), constraint_f2(z)])

    M = _brackets(_gradient(fns, z0, h)[0], d)
    F1, F2 = 2 * d, 2 * d + 1
    c = float(M[F1, F2])
    D = M + (np.outer(M[:, F1], M[F2]) - np.outer(M[:, F2], M[F1])) / c

    q, p = x.q, x.p
    pairs = list(combinations(range(d), 2))
    qp = np.eye(d) - np.outer(q, q)
    s = _family_sign(D[:d, d : 2 * d].ravel(), qp.ravel())
    label = [f"{v}_{i}" for v in "qp" for i in range(d)]
    row = lambda a, b, e: BracketEntry((label[a], label[b]), float(D[a, b]), e)
    entries = [row(i, k, 0.0) for i, k in pairs]
    entries += [row(i, d + k, s * qp[i, k]) for i in range(d) for k in range(d)]
    entries += [row(d + i, d + k, q[i] * p[k] - q[k] * p[i]) for i, k in pairs]
    return DiracReport(entries=entries, qp_sign=s, c_measured=c)


@dataclass(frozen=True)
class ConservationReport:
    h_drift: float
    l_drift: float
    l2_drift: float

    def max_drift(self) -> float:
        return max(self.h_drift, self.l_drift, self.l2_drift)


def conservation_report(params: ModelParams, traj: ode.Trajectory) -> ConservationReport:
    """Max drift of H, L and the scalar invariant at 200 times along a trajectory.

    The trajectory state vector is (q_1..q_d, p_1..p_d).  Drifts are
    relative to the scale of the conserved quantity at the start.
    """
    d = params.d
    ts = np.linspace(traj.t0, traj.t_end, 200)
    x0 = PhasePoint(traj.ys[0][:d], traj.ys[0][d:])
    h0 = hamiltonian(params, x0)
    l0 = angular_momentum(x0).matrix
    l2_0 = l_squared_point(x0)
    h_scale = max(abs(h0), 1.0)
    l_scale = max(float(np.linalg.norm(l0)), 1.0)
    l2_scale = max(l2_0, 1.0)

    dh = dl = dl2 = 0.0
    for t in ts:
        y = traj(t)
        xt = PhasePoint(y[:d], y[d:])
        dh = max(dh, abs(hamiltonian(params, xt) - h0) / h_scale)
        dl = max(dl, float(np.linalg.norm(angular_momentum(xt).matrix - l0)) / l_scale)
        dl2 = max(dl2, abs(l_squared_point(xt) - l2_0) / l2_scale)
    return ConservationReport(h_drift=dh, l_drift=dl, l2_drift=dl2)


@dataclass(frozen=True)
class TransitCheck:
    measured: float
    bound: float
    ok: bool


def transit_bound(params: ModelParams) -> float:
    """Uniform upper bound 2 eps^(2-1/n) sqrt(n m / Z) on the transit time."""
    return 2.0 * params.eps ** (2.0 - 1.0 / params.n) * np.sqrt(
        params.n * params.m / params.Z
    )


def transit_time_check(params: ModelParams, x_entry: PhasePoint) -> TransitCheck:
    """Physical time spent inside the near-collision domain on one transit.

    x_entry must sit on (or just inside) the sphere ||q|| = eps moving
    inward.  The transit runs from x_entry through its pericenter, or
    through the collision when l = 0, back out to ||q|| = eps, so its time
    is T(u_in) + T(u_out): the chart's radial quadrature (`chart._RadialOrbit`)
    from the pericenter out to the entry state and out to the sphere.  No
    ODE is integrated.  The measured time is compared against the uniform
    bound, which carries the mass factor.  Raises ValueError when x_entry
    is not an inward state on or inside the sphere in the chart domain, or
    when its orbit turns back before it reaches the sphere again.
    """
    if x_entry.radial >= 0.0:
        raise ValueError("entry state must be moving inward")
    if x_entry.r > params.eps * (1.0 + 1e-9):
        raise ValueError("entry state must start on or inside the chart radius")
    if not chart.in_U_eps(params, PhasePoint(x_entry.q * (1 - 1e-12), x_entry.p)):
        raise ValueError("entry state is outside the chart domain")

    n = params.n
    r, E, radial = chart._radius_energy_radial(params, x_entry)
    _, qc, pc = cov.plane_reduce(x_entry)
    orbit = chart._RadialOrbit(params, np.array([E]), np.array([abs(qc.real * pc.imag - qc.imag * pc.real)]))
    sigma_eps = params.eps ** (2.0 / n)
    if not (orbit.s0[0] < sigma_eps and orbit.G(np.array([[sigma_eps]]))[0, 0] > 0.0):
        raise ValueError("entry state's orbit turns back before it reaches the chart radius")
    u_in = orbit.phase(chart._pow(r, 2.0 / n), radial)
    u_out = np.sqrt(sigma_eps - orbit.s0)
    measured = float(orbit.time(u_in)[0] + orbit.time(u_out)[0])
    bound = transit_bound(params)
    return TransitCheck(measured=measured, bound=bound, ok=measured <= bound)


def _tail_sweep(params: ModelParams, l: float, r_eval: float) -> float:
    """Residual polar angle swept from radius r_eval out to infinity (E = 0).

    In the substitution w = r**(-1/n) the orbit-equation integrand
    l / (r^2 p_r) dr becomes n l dw / sqrt(2 m Z - l^2 w^2), whose integral
    over [0, r_eval**(-1/n)] is n asin(l r_eval**(-1/n) / sqrt(2 m Z)).
    Without this tail the position direction at any affordable radius
    still deviates from the asymptote by ~ n * (r_min/r_eval)**(1/n), far
    above the certification tolerance for n >= 3.
    """
    n = params.n
    return n * np.arcsin(l * r_eval ** (-1.0 / n) / np.sqrt(2.0 * params.m * params.Z))


def escape(
    params: ModelParams, y0: np.ndarray, r_far: float, cfg: ode.IntegratorConfig
) -> tuple[ode.Trajectory, ode.Trajectory]:
    """Backward and forward physical trajectories of an E = 0 state out to r_far.

    Raises RuntimeError when either branch does not reach r_far.
    """
    d = params.d
    event = ode.EventSpec(
        g=lambda y: sum(y[i] * y[i] for i in range(d)) - r_far * r_far,
        direction=ode.INCREASING,
        name="far",
    )
    # generous time budget: r grows at least like sqrt(2Z/m) t^(n/(2n-1))
    t_budget = 10.0 * np.sqrt(params.m / (2.0 * params.Z)) * r_far ** (2.0 - 1.0 / params.n)
    field = physical_field(params)
    trajs = []
    for sign in (-1.0, 1.0):
        traj = ode.integrate(field, y0, (0.0, sign * t_budget), cfg, events=(event,))
        if traj.reason != ode.REASON_EVENT:
            raise RuntimeError("orbit did not reach the evaluation radius")
        trajs.append(traj)
    return trajs[0], trajs[1]


def asymptotic_direction_pair(
    params: ModelParams,
    x0: PhasePoint,
    radius_factor: float = 1e4,
    cfg: ode.IntegratorConfig | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Asymptotic unit directions of the orbit in the far past and far future.

    x0 must be a non-collision pericenter state of energy zero (within
    1e-10).  Both branches `escape` to radius radius_factor * r_min; the
    direction there is then completed to the true asymptote by the
    closed-form tail of the orbit equation.  For even n the two
    directions coincide, for odd n they are opposite.
    """
    cfg = cfg or ode.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
    # tolerance relative to the kinetic scale: near the pericenter H is a
    # difference of two large terms, so an absolute check would reject
    # legitimately parabolic states by cancellation noise alone
    kinetic = float(np.dot(x0.p, x0.p)) / (2.0 * params.m)
    if abs(hamiltonian(params, x0)) > 1e-10 * max(1.0, kinetic):
        raise ValueError("asymptotic parity is defined for energy-zero orbits")
    d = params.d
    l2 = l_squared_point(x0)
    r_peri = chart.r_min(params, 0.0, l2)
    if r_peri <= 0.0:
        raise ValueError("collision orbit has no asymptotic pair in this form")
    r_far = radius_factor * r_peri

    frame, qc0, pc0 = cov.plane_reduce(x0)
    l_signed = (qc0.conjugate() * pc0).imag  # in-plane angular momentum
    tail = _tail_sweep(params, abs(l_signed), r_far)

    dirs = []
    branches = escape(params, np.concatenate([x0.q, x0.p]), r_far, cfg)
    for sign, traj in zip((-1.0, 1.0), branches):
        qf = traj.ys[-1][:d]
        theta = np.angle(frame.to_complex(qf))
        # the angle keeps sweeping in the sense of l_signed out to infinity
        # (forward branch) and swept from the asymptote in (backward branch)
        theta_inf = theta + sign * np.sign(l_signed) * tail
        dirs.append(frame.to_vector(np.exp(1j * theta_inf)))
    return dirs[0], dirs[1]


def sample_domain_points(
    params: ModelParams,
    rng: np.random.Generator,
    count: int,
    r_range: tuple[float, float] = (0.25, 0.85),
) -> list[PhasePoint]:
    """Random points of the chart domain with margin for difference stencils.

    Radius is kept away from both the origin and the boundary sphere, and
    the kinetic energy is kept a factor above the domain's floor so that
    every stencil point of the default step also lies in the domain.
    """
    pts: list[PhasePoint] = []
    while len(pts) < count:
        r = rng.uniform(*r_range) * params.eps
        u = rng.normal(size=params.d)
        u /= np.linalg.norm(u)
        floor = 2.0 * params.m * (1.0 - 0.5 / params.n) * params.Z * r ** (-params.alpha)
        p_mag = np.sqrt(floor * rng.uniform(1.1, 3.0))
        v = rng.normal(size=params.d)
        v /= np.linalg.norm(v)
        x = PhasePoint(q=r * u, p=p_mag * v)
        if chart.in_U_eps(params, x):
            pts.append(x)
    return pts
