"""`chart.global_flow`: the chart translation T -> T + t on every orbit.

The oracles are independent of the quadrature: DOP853 on the physical field
away from the origin, the covering ODE through collisions, exact rotation on
circular orbits, and the symmetries of the flow (group law, time reversal,
O(d) equivariance and the homogeneity scaling).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcgehee import chart, covering as cov, integrate as ode
from mcgehee.model import ModelParams, PhasePoint, hamiltonian, l_squared_point, physical_field

TIGHT = ode.IntegratorConfig(rel_tol=3e-14, abs_tol=1e-15)


def physical_flow(params, x, t):
    """DOP853 on the physical field; only for orbits that stay off the origin."""
    traj = ode.integrate(physical_field(params), np.concatenate([x.q, x.p]), (0.0, t), TIGHT)
    assert traj.reason == ode.REASON_TIME_LIMIT
    return PhasePoint(traj.ys[-1][: params.d], traj.ys[-1][params.d :])


def covering_flow(params, x, t):
    """The covering ODE to physical time t, through any collision on the way."""
    frame, y0, E = cov.lift_state(params, x)
    at_t = ode.EventSpec(g=lambda y: y[4] - t, direction=ode.ANY, name="t")
    tau = cov.tau_bound(params, abs(complex(y0[0], y0[1])))
    y1 = cov.transit(params, E, y0, np.sign(t) * tau, (at_t,), TIGHT)
    qc, pc = cov.project(params, complex(y1[0], y1[1]), complex(y1[2], y1[3]))
    return cov.plane_embed(frame, qc, pc)


def state_error(params, got, want):
    """Distance of the regular state `got` from `want`: positions relative
    to |q|, momenta relative to the larger of |p| and sqrt(2 m Z |q|**-alpha)."""
    r = want.r
    p_scale = max(np.linalg.norm(want.p), np.sqrt(2.0 * params.m * params.Z * r**-params.alpha))
    return max(np.linalg.norm(got.q - want.q) / r, np.linalg.norm(got.p - want.p) / p_scale)


def flow(params, x, t):
    out = chart.global_flow(params, x, t)
    assert isinstance(out, chart.Regular)
    return out.x


class TestRegressions:
    """Starts on which the ODE flow raised or stalled."""

    @pytest.mark.parametrize(
        "n,q,p",
        [
            (2, [0.04, 0.0], [0.0, 0.0]),
            (3, [0.04, 0.0], [0.0, 0.0]),
            (3, [0.04, 0.0], [0.0, 1e-3]),
            (3, [0.04, 0.0, 0.0], [0.0, 0.0, 0.0]),
            (4, [0.0, 0.03, 0.04], [0.0, 0.0, 0.0]),
        ],
    )
    def test_starts_at_rest(self, n, q, p):
        # the old flow sent the fall to the physical integrator, which failed
        # at the origin; a state at rest is the apocenter of a collision orbit
        params = ModelParams(n=n, d=len(q), eps=0.1)
        x = PhasePoint(np.array(q), np.array(p))
        for t in (1e-3, 3e-3, 1e-2, 3e-2):
            assert state_error(params, flow(params, x, t), covering_flow(params, x, t)) <= 1e-9

    def test_switch_sphere_handoff_stall(self):
        # a fast inward crossing of the old switch sphere ended in "too many
        # segments"; now 16 steps out and 16 back return to the start
        params = ModelParams(n=3, d=3, eps=0.1)
        x = PhasePoint(
            np.array([-1.1437e-4, -2.5069e-4, -1.2902e-4]),
            np.array([182.83181556, -18.60153292, 365.20521352]),
        )
        dt = 0.002154434690031884
        state = chart.Regular(x)
        for _ in range(16):
            state = chart.global_flow(params, state, dt)
        assert state_error(params, state.x, covering_flow(params, x, 16 * dt)) <= 1e-12
        for _ in range(16):
            state = chart.global_flow(params, state, -dt)
        assert state_error(params, state.x, x) <= 1e-9


class TestOrbitClasses:
    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    @pytest.mark.parametrize("ecc", [0.0, 1e-14, 1e-8])
    def test_circular_and_nearly_circular(self, n, ecc):
        # a circular state has s1 = s0 up to rounding, and l**2/2m within an
        # ulp of the peak value; the turning points come from the state
        params = ModelParams(n=n, d=2, eps=0.1)
        r = 0.3
        p_c = np.sqrt(params.alpha * params.m * params.Z * r**-params.alpha)
        x = PhasePoint(np.array([r, 0.0]), np.array([ecc * p_c, p_c]))
        omega = p_c / (params.m * r)
        for t in (0.05, 2.0):
            got = flow(params, x, t)
            if ecc == 0.0:
                turn = np.array([np.cos(omega * t), np.sin(omega * t)])
                want = PhasePoint(r * turn, p_c * np.array([-turn[1], turn[0]]))
                assert state_error(params, got, want) <= 1e-13
            else:
                assert state_error(params, got, physical_flow(params, x, t)) <= 1e-11

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("frac", [1e-6, 1e-9, 1e-12])
    def test_energy_just_below_zero(self, n, frac):
        # E -> 0-: the apocenter runs away and s0/s1 reaches 1e-9 and below
        params = ModelParams(n=n, d=2, eps=0.1)
        r = 0.05
        U = params.Z * r**-params.alpha
        p = np.sqrt(2.0 * params.m * U * (1.0 - frac)) * np.array([-0.8, 0.6])
        x = PhasePoint(np.array([r, 0.0]), p)
        orbit = chart._BoundOrbit(params, hamiltonian(params, x), r * p[1])
        if n == 2 and frac <= 1e-9:
            assert orbit.s0 / orbit.s1 <= 1e-9
        for t in (1e-3, 0.1):
            assert state_error(params, flow(params, x, t), physical_flow(params, x, t)) <= 1e-11

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    @pytest.mark.parametrize("kinetic", [1.5, 30.0])
    def test_unbound_far_beyond_eps(self, n, kinetic):
        # out to r ~ 1000 eps: beyond u_S the quadrature takes its panels
        params = ModelParams(n=n, d=3, eps=0.1)
        r = 0.05
        U = params.Z * r**-params.alpha
        p = np.sqrt(2.0 * kinetic * U) * np.array([0.6, 0.8, 0.0])
        x = PhasePoint(np.array([r, 0.0, 0.0]), p)
        for t in (0.01, 1.0, 10.0):
            got = flow(params, x, t)
            assert state_error(params, got, physical_flow(params, x, t)) <= 1e-11
        assert got.r > 400.0 * params.eps

    def test_kepler_return_after_many_periods(self):
        # t modulo the radial period: the n = 2 orbit closes after 1000 periods
        params = ModelParams(n=2, d=3, eps=0.1)
        x = PhasePoint(np.array([0.4, 0.0, 0.1]), np.array([0.2, 0.9, -0.3]))
        E = hamiltonian(params, x)
        a = -params.Z / (2.0 * E)
        period = 2.0 * np.pi * np.sqrt(params.m * a**3 / params.Z)
        assert state_error(params, flow(params, x, 1000.0 * period), x) <= 1e-11

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_step_onto_the_collision_returns_it(self, n):
        # a collision orbit flowed by whole radial periods lands on the glued
        # point, in the direction A that the chart gives the states around it
        params = ModelParams(n=n, d=2, eps=0.1)
        start = chart.Collision(h=-1.0, a=np.array([0.6, 0.8]))
        period = chart._BoundOrbit(params, -1.0, 0.0).period
        for k in (1, 2):
            out = chart.global_flow(params, start, k * period)
            assert isinstance(out, chart.Collision) and out.h == -1.0
            for dt in (-1e-4, 1e-4):
                near = flow(params, start, (k + dt) * period)
                assert np.allclose(chart.chart_forward(params, near).A, out.a, atol=1e-12)
        # n odd passes through: the next collision comes in on the other ray
        assert np.allclose(chart.global_flow(params, start, period).a, (-1) ** n * start.a, atol=1e-12)

    def test_n1_line_through_the_origin(self):
        params = ModelParams(n=1, d=2, eps=0.1)
        x = PhasePoint(np.array([0.5, 0.0]), np.array([-2.0, 0.0]))
        hit = chart.global_flow(params, x, 0.25)
        assert isinstance(hit, chart.Collision)
        assert np.array_equal(hit.a, [1.0, 0.0])  # A = -p/|p|
        assert hit.h == hamiltonian(params, x)
        assert np.array_equal(flow(params, x, 0.5).q, [-0.5, 0.0])
        out = flow(params, hit, 0.25)
        assert np.allclose(out.q, [-0.5, 0.0], atol=1e-15) and np.allclose(out.p, x.p, atol=1e-14)

    def test_cfg_is_not_read(self):
        params = ModelParams(n=3, d=2, eps=0.1)
        x = PhasePoint(np.array([0.05, 0.01]), np.array([-8.0, 6.0]))
        loose = ode.IntegratorConfig(rel_tol=1e-3, abs_tol=1e-3)
        a, b = flow(params, x, 0.1), chart.global_flow(params, x, 0.1, loose).x
        assert np.array_equal(a.q, b.q) and np.array_equal(a.p, b.p)


# ---------------------------------------------------------------------------
# metamorphic properties


@st.composite
def unit_vectors(draw, d):
    v = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)))
    norm = np.linalg.norm(v)
    if norm < 1e-3:
        v, norm = np.eye(d)[0], 1.0
    return v / norm


@st.composite
def flows(draw):
    """A system with m, Z and eps over two decades, a start (regular, at
    rest or on the glued collision set) and a time scale: the start's own
    sqrt(m/Z) r**(1 + alpha/2)."""
    n = draw(st.sampled_from([1, 2, 3, 4]))
    d = draw(st.sampled_from([2, 3]))
    m, Z, eps = (10.0 ** draw(st.floats(-1.0, 1.0)) for _ in range(3))
    params = ModelParams(n=n, d=d, m=m, Z=Z, eps=eps)
    r = params.eps * draw(st.floats(1e-3, 5.0))
    U = params.Z * r**-params.alpha
    kind = draw(st.sampled_from(["regular", "rest", "collision"]))
    u = draw(unit_vectors(d))
    if kind == "collision":
        h = U * draw(st.floats(-0.9 if n == 1 else -3.0, 3.0))
        start = chart.Collision(h=h, a=u)
    else:
        kinetic = 0.0 if kind == "rest" else draw(st.floats(0.0, 3.0))
        w = draw(unit_vectors(d))
        cos = draw(st.floats(-1.0, 1.0))
        w = w - np.dot(w, u) * u
        w = w / np.linalg.norm(w) if np.linalg.norm(w) > 1e-3 else cov._completion(u)
        v = cos * u + np.sqrt(1.0 - cos * cos) * w
        start = chart.Regular(PhasePoint(r * u, np.sqrt(2.0 * params.m * kinetic * U) * v))
    tau = np.sqrt(params.m / params.Z) * r ** (1.0 + 0.5 * params.alpha)
    return params, start, tau


def radius(state):
    return state.x.r if isinstance(state, chart.Regular) else 0.0


def close(params, a, b, *seen, dt, tol=1e-9):
    """a and b agree up to tol in natural units of the largest radius R among
    them and the states `seen` on the way, and up to a shift of time by dt.

    Positions agree to tol R plus |v| dt, momenta to tol times the larger of
    |p| and the potential's momentum scale at R, plus |dp/dt| dt.  At the
    collision itself v and dp/dt diverge, and there a shift by dt moves the
    state out to about ((2n-1) sqrt(2Z/m) dt / n)**(n/(2n-1)).
    """
    R = max(radius(s) for s in (a, b) + seen)
    if isinstance(a, chart.Collision) and isinstance(b, chart.Collision):
        # h as the regular states on the way carry it: to the rounding of H
        dh = max([4.0 * np.spacing(1.0) * terms(params, s) for s in seen], default=0.0)
        return np.allclose(a.a, b.a, atol=tol) and abs(a.h - b.h) <= tol * max(1.0, abs(a.h)) + dh
    n, m, Z = params.n, params.m, params.Z
    if isinstance(a, chart.Collision) or isinstance(b, chart.Collision):
        reach = ((2 * n - 1) * np.sqrt(2.0 * Z / m) * dt / n) ** (n / (2.0 * n - 1.0))
        dq = chart.project_to_config(a) - chart.project_to_config(b)
        return np.linalg.norm(dq) <= tol * R + 2.0 * reach
    r = min(radius(a), radius(b))
    v = max(np.linalg.norm(a.x.p), np.linalg.norm(b.x.p)) / m
    force = params.alpha * Z * r ** (-params.alpha - 1.0)
    p_scale = max(m * v, np.sqrt(2.0 * m * Z * R**-params.alpha))
    return (np.linalg.norm(a.x.q - b.x.q) <= tol * R + v * dt
            and np.linalg.norm(a.x.p - b.x.p) <= tol * p_scale + force * dt)


def terms(params, state):
    """p**2/2m + U(q): the size of the terms whose difference is H."""
    if isinstance(state, chart.Collision):
        return 0.0
    x = state.x
    return np.dot(x.p, x.p) / (2.0 * params.m) + params.Z * x.r**-params.alpha


def jitter(params, total, tau, *states):
    """The time shift that rounding alone can cause over a flow of `total`.

    1e-13 of the times involved, plus `total` times the relative error of
    the energy that each regular state's (q, p) carry: eps_mach (p**2/2m +
    U(q)) against |E| on a bound orbit and against the larger of E and
    U(R) otherwise, R the largest radius among the states.  A state deep
    near a collision holds its energy to far fewer digits than E has, and
    that error moves the period, and the flow after it, by the same
    fraction.
    """
    R = max(radius(s) for s in states)
    shift = 1e-13 * (total + tau)
    for s in states:
        if isinstance(s, chart.Regular):
            E = hamiltonian(params, s.x)
            scale = -E if E < 0.0 else max(E, params.Z * R**-params.alpha)
            shift += total * 4.0 * np.spacing(1.0) * terms(params, s) / scale
    return shift


def transform(state, fq, fp=None, fh=None):
    """Apply fq to positions and fp to momenta (fq to collision directions)."""
    if isinstance(state, chart.Collision):
        return chart.Collision(h=fh(state.h) if fh else state.h, a=fq(state.a) / np.linalg.norm(fq(state.a)))
    return chart.Regular(PhasePoint(fq(state.x.q), (fp or fq)(state.x.p)))


PROPERTY = settings(derandomize=True, max_examples=60, deadline=2000)

# times in units of the start's time scale.  A state a time t after a
# collision lies at r ~ R (t/tau)**(n/(2n-1)), where (q, p) carry its energy
# only to eps_mach Z/r, so a step of 1e-40 tau leaves rounding for H; such
# steps are left out, 0 is kept
times = st.one_of(st.just(0.0), st.floats(1e-6, 3.0), st.floats(-3.0, -1e-6))


class TestFlowProperties:
    @given(flows(), times, times)
    @PROPERTY
    def test_group_law(self, case, s, t):
        params, start, tau = case
        s, t = s * tau, t * tau
        once = chart.global_flow(params, start, s + t)
        half = chart.global_flow(params, start, t)
        dt = jitter(params, abs(s) + abs(t), tau, start, half, once)
        assert close(params, chart.global_flow(params, half, s), once, start, half, dt=dt)

    @given(flows(), times)
    @PROPERTY
    def test_time_reversal(self, case, t):
        params, start, tau = case
        t = t * tau
        there = chart.global_flow(params, start, t)
        dt = jitter(params, 2.0 * abs(t), tau, start, there)
        assert close(params, chart.global_flow(params, there, -t), start, there, dt=dt)
        if isinstance(start, chart.Regular):
            # (q, p) -> (q, -p) reverses time
            flip = lambda s: transform(s, lambda q: q, lambda p: -p)  # noqa: E731
            assert close(params, chart.global_flow(params, flip(start), -t), flip(there), start, dt=dt)

    @given(flows(), times)
    @PROPERTY
    def test_invariants_conserved(self, case, t):
        # E and l**2 of the start, to the rounding of the terms they are
        # differences of: p**2/2m and U(q), and |q|**2 |p|**2
        params, start, tau = case
        end = chart.global_flow(params, start, t * tau)
        if isinstance(end, chart.Collision):
            assert end.h == (start.h if isinstance(start, chart.Collision) else hamiltonian(params, start.x))
            return
        x = end.x
        H0, l2_0 = ((start.h, 0.0) if isinstance(start, chart.Collision)
                    else (hamiltonian(params, start.x), l_squared_point(start.x)))
        lag = [np.dot(s.x.q, s.x.q) * np.dot(s.x.p, s.x.p) for s in (start, end) if isinstance(s, chart.Regular)]
        assert abs(hamiltonian(params, x) - H0) <= 1e-12 * (terms(params, start) + terms(params, end))
        assert abs(l_squared_point(x) - l2_0) <= 1e-12 * max(lag)

    @given(flows(), times, st.integers(0, 2**32 - 1))
    @PROPERTY
    def test_orthogonal_equivariance(self, case, t, seed):
        params, start, tau = case
        t = t * tau
        Rot, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(params.d, params.d)))
        turn = lambda s: transform(s, lambda v: Rot @ v)  # noqa: E731
        assert close(params, chart.global_flow(params, turn(start), t),
                     turn(chart.global_flow(params, start, t)), start,
                     dt=jitter(params, abs(t), tau, start))
        # on the boundary of U^eps rounding can put one of the two outside
        if isinstance(start, chart.Regular) and all(chart.in_U_eps(params, s.x) for s in (start, turn(start))):
            c, cr = chart.chart_forward(params, start.x), chart.chart_forward(params, turn(start).x)
            assert np.allclose(cr.A, Rot @ c.A, atol=1e-10)
            assert np.allclose(cr.B, Rot @ c.B, atol=1e-10 * max(1.0, np.linalg.norm(c.B)))
            assert cr.T == pytest.approx(c.T, rel=1e-10, abs=1e-13 * tau)

    @given(flows(), times, st.floats(0.1, 10.0))
    @PROPERTY
    def test_homogeneity_scaling(self, case, t, lam):
        # q -> lam q, p -> lam**(-alpha/2) p, t -> lam**(1 + alpha/2) t
        params, start, tau = case
        t = t * tau
        a = params.alpha
        scale = lambda s: transform(  # noqa: E731
            s, lambda q: lam * q, lambda p: lam ** (-a / 2.0) * p, lambda h: lam**-a * h
        )
        assert close(params, chart.global_flow(params, scale(start), lam ** (1.0 + a / 2.0) * t),
                     scale(chart.global_flow(params, start, t)), scale(start),
                     dt=jitter(params, lam ** (1.0 + a / 2.0) * abs(t), lam ** (1.0 + a / 2.0) * tau,
                               scale(start)))
