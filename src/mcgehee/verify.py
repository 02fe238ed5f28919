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

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import chart, covering as cov, integrate as ode
from .model import (
    ModelParams,
    PhasePoint,
    angular_momentum,
    hamiltonian,
    l_squared_point,
    physical_field,
)

# default finite-difference step as a fraction of the local coordinate
# scale; chart functions are evaluated by integration, so steps far below
# this hit the integrator noise floor rather than gaining accuracy
DEFAULT_STEP_FRACTION = 1e-4


def _coordinate_scales(z: np.ndarray, d: int) -> np.ndarray:
    """Per-coordinate step scales: position block and momentum block."""
    q_scale = max(float(np.linalg.norm(z[:d])), 1e-3)
    p_scale = max(float(np.linalg.norm(z[d:])), 1.0)
    return np.concatenate([np.full(d, q_scale), np.full(d, p_scale)])


def _gradient(
    f: Callable[[np.ndarray], float | np.ndarray],
    z: np.ndarray,
    h: np.ndarray,
    richardson: bool = True,
) -> np.ndarray:
    """4th-order central-difference gradient, optionally Richardson-extrapolated.

    For a vector-valued f, row k is the gradient of component k: one
    evaluation of f serves every component.
    """
    cols = []
    for i in range(len(z)):
        hi = h[i]

        def stencil(step: float) -> float | np.ndarray:
            vals = []
            for c in (-2.0, -1.0, 1.0, 2.0):
                zp = z.copy()
                zp[i] += c * step
                vals.append(f(zp))
            return (vals[0] - 8.0 * vals[1] + 8.0 * vals[2] - vals[3]) / (12.0 * step)

        if richardson:
            cols.append((16.0 * stencil(0.5 * hi) - stencil(hi)) / 15.0)
        else:
            cols.append(stencil(hi))
    return np.stack(cols, axis=-1)


def _bracket_from_gradients(gf: np.ndarray, gg: np.ndarray, d: int) -> float:
    """{f,g} = <df/dp, dg/dq> - <df/dq, dg/dp>."""
    return float(np.dot(gf[d:], gg[:d]) - np.dot(gf[:d], gg[d:]))


def poisson_bracket(
    f: Callable[[PhasePoint], float],
    g: Callable[[PhasePoint], float],
    x: PhasePoint,
    h_fraction: float = DEFAULT_STEP_FRACTION,
) -> float:
    """Finite-difference {f, g}(x) under the fixed sign convention."""
    d = len(x.q)
    z = np.concatenate([x.q, x.p])
    h = h_fraction * _coordinate_scales(z, d)

    def fz(zz: np.ndarray) -> float:
        return f(PhasePoint(zz[:d], zz[d:]))

    def gz(zz: np.ndarray) -> float:
        return g(PhasePoint(zz[:d], zz[d:]))

    return _bracket_from_gradients(_gradient(fz, z, h), _gradient(gz, z, h), d)


@dataclass(frozen=True)
class BracketEntry:
    names: tuple[str, str]
    computed: float
    expected: float

    @property
    def residual(self) -> float:
        return abs(self.computed - self.expected)


# one names tuple per table layout, shared by every report that has it
_NAME_TABLES: dict[tuple, tuple] = {}


@dataclass(frozen=True, slots=True)
class BracketReport:
    """All pairwise brackets among {T, H, A_i, B_i} plus the L_ij algebra.

    Kept compact, since callers may hold many reports: a names tuple shared
    by all reports of the same layout and arrays of the computed and
    expected values.  `entries` builds the per-pair view on demand.
    """

    names: tuple[tuple[str, str], ...]
    computed: np.ndarray
    expected: np.ndarray
    h_fraction: float = DEFAULT_STEP_FRACTION
    ab_sign: float = 0.0  # measured sign of {A_i,B_j} vs (delta_ij - A_i A_j)
    bb_sign: float = 0.0  # measured sign of {B_i,B_j} vs L_ij
    ll_sign: float = 0.0  # measured sign of the L_ij structure constants; 0 in d = 2

    @classmethod
    def from_rows(
        cls, rows: Sequence[tuple[tuple[str, str], float, float]], **signs: float
    ) -> "BracketReport":
        names, computed, expected = zip(*rows)
        return cls(
            _NAME_TABLES.setdefault(names, names),
            np.array(computed),
            np.array(expected),
            **signs,
        )

    @property
    def entries(self) -> list[BracketEntry]:
        return [
            BracketEntry(nm, float(c), float(e))
            for nm, c, e in zip(self.names, self.computed, self.expected)
        ]

    @property
    def max_residual(self) -> float:
        return float(np.max(np.abs(self.computed - self.expected), initial=0.0))


def _family_sign(pairs: Sequence[tuple[float, float]]) -> float:
    """Global sign s minimising sum |computed - s*expected| over the family."""
    plus = sum(abs(c - e) for c, e in pairs)
    minus = sum(abs(c + e) for c, e in pairs)
    if all(abs(e) < 1e-12 for _, e in pairs):
        return 1.0
    return 1.0 if plus <= minus else -1.0


def bracket_table(
    params: ModelParams,
    x: PhasePoint,
    h_fraction: float = DEFAULT_STEP_FRACTION,
) -> BracketReport:
    """Brackets of the chart functions at x, compared to their closed forms.

    The mixed family {A_i,B_j}, the momentum family {B_i,B_j} and the
    angular-momentum structure constants are compared up to a single
    measured global sign per family, recorded on the report (the closed
    forms fix them only up to the bracket-convention parity).
    """
    d = params.d
    z0 = np.concatenate([x.q, x.p])
    h = h_fraction * _coordinate_scales(z0, d)

    def chart_vec(z: np.ndarray) -> np.ndarray:
        c = chart.chart_forward(params, PhasePoint(z[:d], z[d:]))
        return np.concatenate([[c.T, c.H], c.A, c.B])

    grads = _gradient(chart_vec, z0, h)
    c0 = chart.chart_forward(params, x)
    A = c0.A
    L = angular_momentum(x)
    iT, iH = 0, 1
    iA = lambda i: 2 + i
    iB = lambda i: 2 + d + i
    pb = lambda a, b: _bracket_from_gradients(grads[a], grads[b], d)

    rows = [(("H", "T"), pb(iH, iT), 1.0)]
    for i in range(d):
        rows.append((("H", f"A_{i}"), pb(iH, iA(i)), 0.0))
        rows.append((("H", f"B_{i}"), pb(iH, iB(i)), 0.0))
        rows.append((("T", f"A_{i}"), pb(iT, iA(i)), 0.0))
        rows.append((("T", f"B_{i}"), pb(iT, iB(i)), 0.0))
    for i in range(d):
        for j in range(i + 1, d):
            rows.append(((f"A_{i}", f"A_{j}"), pb(iA(i), iA(j)), 0.0))

    ab_pairs = [
        (pb(iA(i), iB(j)), (1.0 if i == j else 0.0) - A[i] * A[j])
        for i in range(d)
        for j in range(d)
    ]
    ab_sign = _family_sign(ab_pairs)
    k = 0
    for i in range(d):
        for j in range(d):
            c, e = ab_pairs[k]
            rows.append(((f"A_{i}", f"B_{j}"), c, ab_sign * e))
            k += 1

    bb_pairs = [
        (pb(iB(i), iB(j)), L[i, j]) for i in range(d) for j in range(i + 1, d)
    ]
    bb_sign = _family_sign(bb_pairs)
    k = 0
    for i in range(d):
        for j in range(i + 1, d):
            c, e = bb_pairs[k]
            rows.append(((f"B_{i}", f"B_{j}"), c, bb_sign * e))
            k += 1

    ll_rows, ll_sign = _angular_momentum_algebra(x, h_fraction)
    return BracketReport.from_rows(
        rows + ll_rows,
        h_fraction=h_fraction,
        ab_sign=ab_sign,
        bb_sign=bb_sign,
        ll_sign=ll_sign,
    )


def _angular_momentum_algebra(
    x: PhasePoint, h_fraction: float
) -> tuple[list[tuple[tuple[str, str], float, float]], float]:
    """Structure constants of the L_ij functions themselves (exact FD).

    Closed form (up to the convention sign recorded as ll_sign):

        {L_ij, L_kl} = s * (delta_il L_jk - delta_ik L_jl
                            - delta_jl L_ik + delta_jk L_il).
    """
    d = len(x.q)
    L = angular_momentum(x)
    z0 = np.concatenate([x.q, x.p])
    h = h_fraction * _coordinate_scales(z0, d)

    def l_fn(i: int, j: int) -> Callable[[np.ndarray], float]:
        return lambda z: z[j] * z[d + i] - z[i] * z[d + j]

    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    grads = {ij: _gradient(l_fn(*ij), z0, h) for ij in pairs}
    delta = np.eye(d)
    fam = []
    labels = []
    for (i, j) in pairs:
        for (k, l) in pairs:
            if (i, j) >= (k, l):
                continue
            computed = _bracket_from_gradients(grads[(i, j)], grads[(k, l)], d)
            expected = (
                delta[i, l] * L[j, k]
                - delta[i, k] * L[j, l]
                - delta[j, l] * L[i, k]
                + delta[j, k] * L[i, l]
            )
            fam.append((computed, expected))
            labels.append((f"L_{i}{j}", f"L_{k}{l}"))
    sign = _family_sign(fam) if fam else 0.0  # d = 2: nothing to measure
    return [(names, c, sign * e) for (names, (c, e)) in zip(labels, fam)], sign


@dataclass(frozen=True)
class DiracReport:
    entries: list[BracketEntry]
    qp_sign: float  # measured sign of {q_i,p_k}_Dirac vs (delta_ik - q_i q_k)
    c_measured: float  # {F1, F2}(x); -2 on the unit sphere bundle

    @property
    def max_residual(self) -> float:
        return max((e.residual for e in self.entries), default=0.0)


def constraint_f1(z: np.ndarray) -> float:
    """F1 = <q,q> - 1."""
    d = len(z) // 2
    return float(np.dot(z[:d], z[:d])) - 1.0


def constraint_f2(z: np.ndarray) -> float:
    """F2 = <q,p>."""
    d = len(z) // 2
    return float(np.dot(z[:d], z[d:]))


def dirac_bracket_check(
    x: PhasePoint, h_fraction: float = DEFAULT_STEP_FRACTION
) -> DiracReport:
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
    h = h_fraction * _coordinate_scales(z0, d)

    coord = lambda i: (lambda z: float(z[i]))
    fns = [coord(i) for i in range(2 * d)] + [constraint_f1, constraint_f2]
    grads = [_gradient(f, z0, h) for f in fns]
    g1, g2 = grads[2 * d], grads[2 * d + 1]
    pb = lambda ga, gb: _bracket_from_gradients(ga, gb, d)
    c = pb(g1, g2)

    def dirac(ga: np.ndarray, gb: np.ndarray) -> float:
        return pb(ga, gb) + (pb(ga, g1) * pb(g2, gb) - pb(ga, g2) * pb(g1, gb)) / c

    q, p = x.q, x.p
    entries: list[BracketEntry] = []
    for i in range(d):
        for k in range(i + 1, d):
            cqq = dirac(grads[i], grads[k])
            entries.append(BracketEntry((f"q_{i}", f"q_{k}"), cqq, 0.0))
    qp_pairs = []
    for i in range(d):
        for k in range(d):
            cqp = dirac(grads[i], grads[d + k])
            qp_pairs.append(((i, k), cqp, (1.0 if i == k else 0.0) - q[i] * q[k]))
    s = _family_sign([(c_, e_) for _, c_, e_ in qp_pairs])
    for (i, k), c_, e_ in qp_pairs:
        entries.append(BracketEntry((f"q_{i}", f"p_{k}"), c_, s * e_))
    for i in range(d):
        for k in range(i + 1, d):
            cpp = dirac(grads[d + i], grads[d + k])
            exp = q[i] * p[k] - q[k] * p[i]
            entries.append(BracketEntry((f"p_{i}", f"p_{k}"), cpp, exp))
    return DiracReport(entries=entries, qp_sign=s, c_measured=c)


@dataclass(frozen=True)
class ConservationReport:
    h_drift: float
    l_drift: float
    l2_drift: float
    samples: int

    def max_drift(self) -> float:
        return max(self.h_drift, self.l_drift, self.l2_drift)


def conservation_report(
    params: ModelParams, traj: ode.Trajectory, samples: int = 200
) -> ConservationReport:
    """Max drift of H, L and the scalar invariant along a physical trajectory.

    The trajectory state vector is (q_1..q_d, p_1..p_d).  Drifts are
    relative to the scale of the conserved quantity at the start.
    """
    d = params.d
    ts = np.linspace(traj.t0, traj.t_end, samples)
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
    return ConservationReport(h_drift=dh, l_drift=dl, l2_drift=dl2, samples=samples)


@dataclass(frozen=True)
class TransitCheck:
    measured: float
    bound: float
    ok: bool
    literal_bound: float  # without the mass factor; equals `bound` for m = 1
    literal_ok: bool


def transit_bound(params: ModelParams) -> float:
    """Uniform upper bound 2 eps^(2-1/n) sqrt(n m / Z) on the transit time."""
    return 2.0 * params.eps ** (2.0 - 1.0 / params.n) * np.sqrt(
        params.n * params.m / params.Z
    )


def transit_time_check(params: ModelParams, x_entry: PhasePoint) -> TransitCheck:
    """Physical time spent inside the near-collision domain on one transit.

    x_entry must sit on (or just inside) the sphere ||q|| = eps moving
    inward.  The transit is carried by the covering flow so collision
    passages are included; measured time is compared against the uniform
    bound with the mass factor, and against the bound without it.
    """
    if x_entry.radial >= 0.0:
        raise ValueError("entry state must be moving inward")
    if x_entry.r > params.eps * (1.0 + 1e-9):
        raise ValueError("entry state must start on or inside the chart radius")
    if not chart.in_U_eps(params, PhasePoint(x_entry.q * (1 - 1e-12), x_entry.p)):
        raise ValueError("entry state is outside the chart domain")

    _, y0, E = cov.lift_state(params, x_entry)
    tau_max = cov.tau_bound(params, params.eps ** (1.0 / params.n))
    exit_event = cov.radius_event(params, params.eps)
    measured = float(cov.transit(params, E, y0, tau_max, (exit_event,), chart._TIGHT)[4])
    bound = transit_bound(params)
    literal = bound / np.sqrt(params.m)
    return TransitCheck(
        measured=measured,
        bound=bound,
        ok=measured <= bound,
        literal_bound=literal,
        literal_ok=measured <= literal,
    )


def _tail_sweep(params: ModelParams, l: float, r_eval: float) -> float:
    """Residual polar angle swept from radius r_eval out to infinity (E = 0).

    In the substitution w = r**(-1/n) the orbit-equation integrand
    l / (r^2 p_r) dr becomes n l dw / sqrt(2 m Z - l^2 w^2), which is
    smooth on [0, r_eval**(-1/n)] and integrated by quadrature.  Without
    this tail the position direction at any affordable radius still
    deviates from the asymptote by ~ n * (r_min/r_eval)**(1/n), far above
    the certification tolerance for n >= 3.
    """
    from scipy.integrate import quad

    n, m, Z = params.n, params.m, params.Z
    w_eval = r_eval ** (-1.0 / n)
    val, _ = quad(lambda w: n * l / np.sqrt(2.0 * m * Z - l * l * w * w), 0.0, w_eval)
    return val


def asymptotic_direction_pair(
    params: ModelParams,
    x0: PhasePoint,
    radius_factor: float = 1e4,
    cfg: ode.IntegratorConfig | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Asymptotic unit directions of the orbit in the far past and far future.

    x0 must be a non-collision pericenter state of energy zero (within
    1e-10).  Both branches are integrated to radius radius_factor * r_min;
    the direction there is then completed to the true asymptote by the
    convergent tail quadrature of the orbit equation.  For even n the two
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

    field = physical_field(params)
    event = ode.EventSpec(
        g=lambda y: float(np.dot(y[:d], y[:d])) - r_far * r_far,
        direction=ode.INCREASING,
        name="far",
    )
    # generous time budget: r grows at least like sqrt(2Z/m) t^(n/(2n-1))
    t_budget = 10.0 * np.sqrt(params.m / (2.0 * params.Z)) * r_far ** (2.0 - 1.0 / params.n)
    y0 = np.concatenate([x0.q, x0.p])
    dirs = []
    for sign in (-1.0, 1.0):
        traj = ode.integrate(field, y0, (0.0, sign * t_budget), cfg, events=(event,))
        if traj.reason != ode.REASON_EVENT:
            raise RuntimeError("orbit did not reach the evaluation radius")
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
    speed_margin: tuple[float, float] = (1.1, 3.0),
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
        p_mag = np.sqrt(floor * rng.uniform(*speed_margin))
        v = rng.normal(size=params.d)
        v /= np.linalg.norm(v)
        x = PhasePoint(q=r * u, p=p_mag * v)
        if chart.in_U_eps(params, x):
            pts.append(x)
    return pts
