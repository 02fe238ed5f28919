"""`chart.global_flow`: the chart translation T -> T + t on every orbit.

The oracles are independent of the quadrature: DOP853 on the physical field
away from the origin, the covering ODE through collisions, exact rotation on
circular orbits, and the symmetries of the flow (group law, time reversal,
O(d) equivariance and the homogeneity scaling).
"""

import logging
import math
import re
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcgehee import chart, covering as cov, integrate as ode, verify
from mcgehee.model import (
    DomainError,
    ModelParams,
    PhasePoint,
    hamiltonian,
    l_squared_point,
    physical_field,
)

from test_digests import load_digests

TIGHT = ode.IntegratorConfig(rel_tol=3e-14, abs_tol=1e-15)
flow_calls = load_digests().flow_calls


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


def unbound_chains(ns=(2, 3, 4, 5), starts=6, steps=16):
    """Unbound steps as the collide benchmark takes them: chart-domain
    starts with E > 0 over radii up to eps, d = 2 and 3, each stepped
    `steps` times by a tenth of the time scale sqrt(m/Z) eps**(1 + alpha/2),
    each step from the end of the one before, through the pericenter too:
    (params, state, dt) per step."""
    rng = np.random.default_rng(26)
    calls = []
    for n in ns:
        for d in (2, 3):
            params = ModelParams(n=n, d=d, eps=0.1)
            dt = 0.1 * np.sqrt(params.m / params.Z) * params.eps ** (1.0 + 0.5 * params.alpha)
            points = verify.sample_domain_points(params, rng, 4 * starts, r_range=(0.05, 1.0))
            for x in [x for x in points if hamiltonian(params, x) > 0.0][:starts]:
                for _ in range(steps):
                    calls.append((params, x, dt))
                    x = chart.global_flow(params, x, dt).x
    return calls


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



class TestNonFinite:
    """A start or a time beyond the float range raises DomainError instead
    of returning a state of infinities and NaNs."""

    @pytest.mark.parametrize(
        "q,p,t,what",
        [
            ([0.05, 0.0], [0.0, 20.0], 1e308, "end state"),  # r = 1.7e309
            # G overflows at the start (E sigma P beyond the float range); it
            # flows, and only its end at r = 1e314 fails
            ([3.0, 0.0], [1e154, 1e150], 1e160, "end state"),
            ([1e200, 0.0], [0.0, 1.0], 1.0, "start's radius"),  # |q|**2 overflows; raised OverflowError
            ([0.05, 0.0], [0.0, 1.0], float("inf"), "time"),
            ([0.05, 0.0], [0.0, 1.0], float("nan"), "time"),
            ([1e-100, 0.0], [1.9e154, 0.0], 1.0, "start's radius, energy"),  # E overflows
        ],
    )
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_raises_domain_error(self, q, p, t, what):
        params = ModelParams(n=3, d=2, eps=0.1)
        with pytest.raises(DomainError, match=f"the {what}.* not finite"):
            chart.global_flow(params, PhasePoint(np.array(q), np.array(p)), t)

    @pytest.mark.parametrize("q", [[1e155, 0.0], [1e200, 0.0]])
    def test_start_beyond_the_float_range_raises_without_a_warning(self, q):
        # |q|**2 overflows: the DomainError comes before numpy's overflow
        # warnings from the dot products of the start
        params = ModelParams(n=3, d=2, eps=0.1)
        x = PhasePoint(np.array(q), np.array([3e-101, 4e-101]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="the start's radius.* not finite"):
                chart.global_flow(params, x, 1.0)
            with pytest.raises(DomainError, match="the start's radius.* not finite"):
                chart.trajectory(params, x, [0.5, 1.0])

    @pytest.mark.parametrize(
        "n,q,p",
        [(n, [3.0, 0.0], [1e154, 1e150]) for n in (3, 4, 5, 6)] + [(n, [1.0, 0.0], [5.4e153, 8.4e153]) for n in (5, 6)],
    )
    def test_start_where_G_overflows_moves_on_a_straight_line(self, n, q, p):
        # G = G0 + E sigma P overflows at the start, and for n >= 5 from
        # (1, 0) so does `_far`'s (E / sigma) S: the start's phase, T and p_r
        # take sqrt(E) out.  The kinetic energy dwarfs the potential by 1e300.
        params = ModelParams(n=n, d=2, eps=0.1)
        x = PhasePoint(np.array(q), np.array(p))
        scale = 1e150  # |p|**2 overflows at this scale
        for t in (-1e-154, 1.0):  # back by about |q|, and out to |q| = |p|
            y = chart.global_flow(params, x, t).x
            line = x.q + x.p * (t / params.m)
            assert np.linalg.norm((y.q - line) / scale) <= 1e-12 * np.linalg.norm(line / scale)
            assert np.linalg.norm((y.p - x.p) / scale) <= 1e-12 * np.linalg.norm(x.p / scale)

    @pytest.mark.parametrize(
        "q,p,t",
        [([3.0, 0.0], [1e154, 1e150], 1e-155), ([3.0, 0.0], [1e154, 1e150], 1.0), ([0.3, 0.0], [1e150, 1e146], 1.0)],
    )
    def test_newton_where_G_overflows_takes_few_rounds(self, q, p, t):
        # dT/du from `_far`'s g where sqrt(G) overflows: rate 0 there made
        # Newton bisect, 47-52 rounds for these starts
        params = ModelParams(n=3, d=2, eps=0.1)
        x = PhasePoint(np.array(q), np.array(p))
        end, kind, _, sol = chart._orbit_flow(params, chart.Regular(x), t)
        assert kind == "unbound" and sol.iterations <= 10
        line, scale = x.q + x.p * (t / params.m), 1e150  # |p|**2 overflows at this scale
        assert np.linalg.norm((end.x.q - line) / scale) <= 1e-14 * np.linalg.norm(line / scale)
        assert np.linalg.norm((end.x.p - x.p) / scale) <= 1e-14 * np.linalg.norm(x.p / scale)

    @pytest.mark.parametrize("n", [3, 4])
    def test_far_start_brackets_in_few_passes(self, n):
        # the tangent from the start, 1e-154 in time from its pericenter,
        # lay 2**340 from the root: 25 passes of T in 45 ms for n = 3; the
        # free motion's u started within a factor 2 (5 passes), and the
        # start raised to it, refined by the short-step rule, takes 1.
        # Every node pass counts.  Same end state: the digits recorded
        # before, to 4 ulp
        params = ModelParams(n=n, d=2, eps=0.1)
        x = PhasePoint(np.array([3.0, 0.0]), np.array([1e154, 1e150]))
        assert load_digests().flow_passes([(params, x, 1.0)])["unbound"][0] <= 10
        y = chart.global_flow(params, x, 1.0).x
        recorded = {3: [1e154, 1.0000000000025543e150], 4: [1.0000000000000002e154, 9.999999999825704e149]}[n]
        for got in (y.q, y.p):
            assert np.all(np.abs(got - recorded) <= 4.0 * np.spacing(np.abs(np.array(recorded))))

    def test_random_starts_where_G_overflows_flow(self):
        # |p| near 1e154 at r from 1 to 10, with l**2 in the float range
        rng = np.random.default_rng(7)
        overflows = 0
        for _ in range(30):
            n = int(rng.integers(2, 7))
            params = ModelParams(n=n, d=2, eps=0.1)
            a, b = rng.uniform(0.0, 2.0 * np.pi, 2)
            r, P = 10.0 ** rng.uniform(0.0, 1.0), 10.0 ** rng.uniform(153.6, 154.1)
            if r * P * abs(np.sin(a - b)) > 1e154:
                continue
            x = PhasePoint(r * np.array([np.cos(a), np.sin(a)]), P * np.array([np.cos(b), np.sin(b)]))
            with np.errstate(over="ignore"):
                overflows += hamiltonian(params, x) * r ** (2.0 * (n - 1) / n) > np.finfo(float).max / (n - 1)
            t = rng.choice([-1.0, 1.0]) * r / P * 10.0 ** rng.uniform(-3.0, 3.0)
            y = chart.global_flow(params, x, t).x
            line = x.q + x.p * (t / params.m)
            assert np.linalg.norm((y.q - line) / 1e150) <= 1e-12 * np.linalg.norm(line / 1e150)
            assert np.linalg.norm((y.p - x.p) / 1e150) <= 1e-12 * P / 1e150
        assert overflows >= 10

    @pytest.mark.parametrize("n,h", [(1, float("inf")), (3, float("nan")), (3, float("inf"))])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_collision_start_with_non_finite_energy(self, n, h):
        params = ModelParams(n=n, d=2, eps=0.1)
        with pytest.raises(DomainError, match="not finite"):
            chart.global_flow(params, chart.Collision(h=h, a=np.array([1.0, 0.0])), 0.1)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_n1_line_beyond_the_float_range(self):
        params = ModelParams(n=1, d=2, eps=0.1)
        with pytest.raises(DomainError, match="the end state is not finite"):
            chart.global_flow(params, PhasePoint(np.array([0.05, 0.0]), np.array([1e300, 0.0])), 1e10)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_period_beyond_the_float_range_is_refused(self):
        # at rest at r = 1e150 with m = 1e166: half the radial period is
        # finite, the period and the series' pi a_0 are not, so the step
        # takes no series guess, and the start's orbit is refused
        params = ModelParams(n=2, d=2, m=1e166)
        x = PhasePoint(np.array([1e150, 0.0]), np.zeros(2))
        assert chart._BoundOrbit(params, hamiltonian(params, x), 0.0).period == np.inf
        with pytest.raises(DomainError, match="the start's orbit is not finite"):
            chart.global_flow(params, x, 1.0)

    @pytest.mark.parametrize("n", [2, 3, 6])
    @pytest.mark.parametrize("m,Z,h", [(1.0, 1e-300, -1e150), (1e-300, 1e-300, -0.5)])
    def test_bound_orbit_below_the_normal_floats_is_refused(self, n, m, Z, h):
        # Z / |h| underflows (math.log raised ValueError), and the apocenter
        # (rate's 0 / 0) or the radial period (fmod's warning) lies below
        # the normal floats: a DomainError, with no warning
        params = ModelParams(n=n, d=2, m=m, Z=Z)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t in (0.5, 1e-300):
                with pytest.raises(DomainError, match="is not a positive normal float"):
                    chart.global_flow(params, chart.Collision(h=h, a=np.array([0.6, 0.8])), t)
                with pytest.raises(DomainError, match="is not a positive normal float"):
                    chart.trajectory(params, chart.Collision(h=h, a=np.array([0.6, 0.8])), [0.0, t])

    def test_apocenter_root_that_overflows_is_refused(self):
        # E s**6 overflows at Newton's start s_far, so the apocenter root is
        # NaN: it read max(s0, NaN) = s0 = 0, and `_fused` divided by
        # sqrt(R0) = 0 (ZeroDivisionError)
        params = ModelParams(n=6, d=2, m=3.2337712134863386e38, Z=3.2285658950353784e274)
        x = PhasePoint(np.array([-1.8019321401070267e101, -1.1945224815734989e101]),
                       np.array([-3.658737801445487e-235, 2.5867356586371624e-235]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="apocenter sigma=nan is not a positive normal float"):
                chart.global_flow(params, x, 2.535455382373016e282)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_start_without_a_finite_phase_is_refused(self):
        # m and Z near the float range's ends, E = 0: sqrt(2m) g underflows
        # in the start's phase u = |<q,p>| / (r sqrt(2m) g), which reads inf,
        # so `_step` places no start; the refusal warns of nothing on the way
        params = ModelParams(n=5, d=2, m=8.563722194234795e-243, Z=8.637020896443998e-190)
        x = PhasePoint(np.array([9.13754980340054e145, 1.6285835131526285e145]),
                       np.array([1.5119399539213605e-302, -4.399679487761963e-303]))
        assert hamiltonian(params, x) == 0.0
        with pytest.raises(DomainError, match="the start's orbit is not finite"):
            chart.global_flow(params, x, 3.8e-210)
        with pytest.raises(DomainError, match="the start's orbit is not finite"):
            chart.trajectory(params, x, [0.0, 3.8e-210])

    def test_far_but_finite_steps_still_flow(self):
        # a bound orbit reduces any finite time modulo its period
        params = ModelParams(n=3, d=2, eps=0.1)
        out = flow(params, PhasePoint(np.array([0.05, 0.0]), np.array([0.0, 0.1])), 1e300)
        assert np.isfinite(out.q).all() and np.isfinite(out.p).all()


    @pytest.mark.parametrize("n", [2, 3])
    def test_flow_where_E_over_Z_overflows(self, n):
        # m = Z = 1e-300: E/Z ~ 1e599 overflows, which made the radial
        # orbit's panel count inf (OverflowError); the potential is 1e-600
        # of the kinetic energy, so the orbit is the free line to round-off
        params = ModelParams(n=n, d=2, m=1e-300, Z=1e-300)
        x = PhasePoint(np.array([1.0, 0.0]), np.array([0.3, 0.4]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for t in (1.0, -1e-300, 1e-290):
                y = chart.global_flow(params, x, t).x
                line = x.q + x.p * (t / params.m)
                assert np.abs(y.q - line).max() <= 1e-14 * np.abs(line).max()
                assert np.abs(y.p - x.p).max() <= 1e-14 * np.abs(x.p).max()


class TestTinyRadius:
    """Starts with |q| below 1.5e-154 flow as their images under the
    scaling q -> 2**(n k) q, p -> 2**((1-n) k) p, t -> 2**((2n-1) k) t of
    the homogeneous potential; before, a bound orbit's constants in sigma,
    where sigma**n = |q|**2 is not a normal float, lost up to 8e-3 at
    |q| = 1e-160 for n = 3, 4, and |q| = 1e-170 read as q = 0.  The n = 2 flows are held
    to Kepler's in `test_reference.py`."""

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("q0,p", [(1e-160, [0.0, 1e-30]), (1e-170, [1e50, 1e60]), (1e-170, [1e110, -1e105])])
    def test_flow_is_the_scaled_flow(self, n, q0, p):
        params = ModelParams(n=n, d=2, eps=0.1)
        x = PhasePoint(np.array([q0, 0.0]), np.array(p))
        k = 2 - np.frexp(q0)[1] // n  # 2**(n k) |q| near 2**(2n): not the library's scaling
        X = PhasePoint(np.ldexp(x.q, n * k), np.ldexp(x.p, (1 - n) * k))
        for f in (1e-3, 0.3, 7.0):
            t = f * np.linalg.norm(X.q) ** (1.0 + 0.5 * params.alpha)
            want = flow(params, X, t)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = flow(params, x, np.ldexp(t, (1 - 2 * n) * k))
            big = PhasePoint(np.ldexp(got.q, n * k), np.ldexp(got.p, (1 - n) * k))
            assert state_error(params, big, want) <= 1e-13

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_time_beyond_the_scaled_float_range_raises(self):
        # t = 1e30 from |q| = 1e-170 is 2**940 times that in the scaled flow
        params = ModelParams(n=3, d=2, eps=0.1)
        x = PhasePoint(np.array([1e-170, 0.0]), np.array([1e50, 1e60]))
        with pytest.raises(DomainError, match="the scaled time is not finite"):
            chart.global_flow(params, x, 1e30)
        with pytest.raises(DomainError, match="the scaled time is not finite"):
            chart.trajectory(params, x, [0.0, 1e-290, -1e30])
        # from the collision set, 5e-324 takes k = 11 for n = 3, which takes
        # 1e300 to 2**55 1e300
        launch = chart.Collision(h=2.0, a=np.array([0.6, 0.8]))
        assert isinstance(chart.trajectory(params, launch, [5e-324, 1e290])[1], chart.Regular)
        with pytest.raises(DomainError, match="the scaled time is not finite"):
            chart.trajectory(params, launch, [5e-324, 1e300])

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_scaled_start_ends_on_the_collision(self, n):
        # at rest at |q| = 1e-160, the apocenter of a collision orbit: after
        # half its radial period (its scaled orbit's, scaled back) it is on
        # the collision, and its energy is the scaled orbit's in the start's
        # units, the start's own to the rounding of alpha
        params = ModelParams(n=n, d=2, eps=0.1)
        x = PhasePoint(np.array([1e-160, 0.0]), np.zeros(2))
        k = -np.frexp(x.r)[1] // n
        r, E, _ = chart._radius_energy_radial(params, PhasePoint(np.ldexp(x.q, n * k), x.p))
        half = chart._BoundOrbit.through(params, E, 0.0, chart._pow(r, 2.0 / n), 0.0).period / 2.0
        for f in (1.0, -1.0, 3.0):
            t = f * np.ldexp(half, (1 - 2 * n) * k)
            for end in (chart.global_flow(params, x, t), chart.trajectory(params, x, [0.0, t])[1]):
                assert isinstance(end, chart.Collision) and end.h == np.ldexp(E, 2 * (n - 1) * k)
                assert end.h == pytest.approx(hamiltonian(params, x), rel=1e-13)
                assert abs(end.a[0]) == pytest.approx(1.0, abs=1e-15)  # on the start's line


@pytest.mark.parametrize("n", [2, 3, 4, 6])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_times_below_the_normal_floats_from_a_pericenter(n):
    # the start's time since its pericenter is 0, so the step's is t itself:
    # T(g) at the first guess underflowed to 0 and the chord g |t| / T(g)
    # divided by it (ZeroDivisionError at |q| = 10, n = 2-6); the bracket
    # is [g, inf] there.  The state moves by |t p / m| < 1e-322
    params = ModelParams(n=n, d=2)
    x = PhasePoint(np.array([10.0, 0.0]), np.array([0.0, 2.0]))
    for t in (5e-324, -5e-324, 1e-320):
        for y in (flow(params, x, t), chart.trajectory(params, x, [t, 0.0])[0].x):
            assert np.linalg.norm(y.q - x.q) <= 1e-15 * x.r and np.linalg.norm(y.p - x.p) <= 1e-15 * 2.0


def radial_kepler(m, Z, h, t):
    """r and p_r at time t >= 0 after an n = 2 launch from the collision set
    at energy h < 0, in mpmath at 40 digits: r = a (1 - cos eta) and
    t = sqrt(m a**3 / Z) (eta - sin eta) with a = Z / (2 |h|)."""
    with mp.workdps(40):
        m, Z, h, t = (mp.mpf(v) for v in (m, Z, h, t))
        a = Z / (2 * -h)
        scale = mp.sqrt(m * a**3 / Z)
        eta = mp.findroot(lambda e: e - mp.sin(e) - t / scale, mp.cbrt(6 * t / scale))
        return float(a * (1 - mp.cos(eta))), float(m * a * mp.sin(eta) / (scale * (1 - mp.cos(eta))))


@pytest.mark.parametrize("n", [2, 3, 6])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_collision_launch_where_the_circular_peak_underflows(n):
    # at Z = 1e-300 the circular orbit's l**2/2m underflows to 0, and
    # `_BoundOrbit.through` took its near-circular branch, which reads the
    # start's <q,p>: a launch from the collision set has none (TypeError)
    params = ModelParams(n=n, d=2, Z=1e-300)
    launch = chart.Collision(h=-0.5, a=np.array([0.6, 0.8]))
    # about 1.6e199 periods for n = 2: the phase is ill-conditioned, so the
    # state is held only to the orbit's apocenter (E s**n + Z s = 0, r = s**(n/2)) and its energy
    y = flow(params, launch, 1e-100)
    assert np.isfinite([*y.q, *y.p]).all()
    assert y.r <= (params.Z / 0.5) ** (n / (2.0 * (n - 1.0))) * (1.0 + 1e-15)
    assert hamiltonian(params, y) == pytest.approx(-0.5, rel=1e-13)
    if n == 2:  # the radial Kepler orbit, outward along -a, from 1/600 to 16 periods
        for t in (1e-302, 3e-300, 1e-298):
            y = flow(params, launch, t)
            r, p_r = radial_kepler(params.m, params.Z, -0.5, t)
            assert np.max(np.abs(y.q + r * launch.a)) / r <= 1e-13
            assert np.max(np.abs(y.p + p_r * launch.a)) / math.sqrt(2.0 * params.m * params.Z / r) <= 1e-13


class TestHugeTimes:
    """Unbound orbits far beyond any physical time scale: the flow stays
    finite until r itself leaves the float range, and warns of nothing on
    the way, though its first attempts overflow where the far forms take
    over."""

    def test_unbound_orbit_recedes_at_its_asymptotic_speed(self):
        # a tangent first guess overshot by up to 1e200 here, and T's
        # integrand overflows on the way out
        params = ModelParams(n=3, d=2, eps=0.1)
        x = PhasePoint(np.array([0.05, 0.0]), np.array([0.0, 20.0]))
        speed = np.sqrt(2.0 * hamiltonian(params, x) / params.m)
        for t in (1e60, 1e80, 1e100, 1e150, -1e200, 1e250, 1e300, 1.05e307):
            y = chart.global_flow(params, x, t)
            assert isinstance(y, chart.Regular)
            # |q| by hypot: its square overflows
            assert np.hypot(*y.x.q) / abs(t) == pytest.approx(speed, rel=1e-12)
            assert np.hypot(*y.x.p) == pytest.approx(params.m * speed, rel=1e-12)
        with pytest.raises(DomainError, match="the end state is not finite"):
            chart.global_flow(params, x, 1.06e307)  # r = 1.81e308

    @pytest.mark.parametrize("n", [5, 6])
    def test_swept_angle_stays_finite_where_P_overflows(self, n):
        # P(sigma) ~ sigma**(n-2) overflows long before r does for n >= 5
        params = ModelParams(n=n, d=3, eps=0.1)
        x = PhasePoint(np.array([0.05, 0.01, 0.0]), np.array([0.3, 20.0, 1.0]))
        speed = np.sqrt(2.0 * hamiltonian(params, x) / params.m)
        for t in (1e300, -1e300):
            q = chart.global_flow(params, x, t).x.q
            near = chart.global_flow(params, x, np.copysign(1e100, t)).x.q
            r = np.hypot(np.hypot(q[0], q[1]), q[2])
            assert r / abs(t) == pytest.approx(speed, rel=1e-12)
            # the direction has settled by t = 1e100, where P is finite
            assert np.abs(q / r - near / np.linalg.norm(near)).max() <= 1e-15

    @pytest.mark.parametrize("n", [5, 6])
    def test_swept_angle_where_P_overflows_is_mpmaths(self, n):
        # out to a u where P(sigma) ~ sigma**(n-2) overflows on some nodes
        # (r stays within the float range): the remainder's scaled form
        # there is the exact integrand's limit, against mpmath at 30 digits
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        params = ModelParams(n=n, d=2)
        for E, l in ((200.5, 0.3), (1e10, 1e-3), (3.0, 1e5)):
            orbit = chart._RadialOrbit(params, np.array([E]), np.array([l]))
            s0 = mp.mpf(float(orbit.s0[0]))

            def integrand(v):
                sigma = s0 + v * v
                G = params.Z + E * sum(sigma ** (n - 1 - j) * s0**j for j in range(n))
                return 1 / (sigma * mp.sqrt(G))

            for u in (1e30, 1e55, 1e60) if n == 5 else (1e30, 1e40, 1e50):  # r <= 1e300
                sigma, _ = orbit._nodes(np.array([u]))
                with np.errstate(over="ignore"):
                    assert np.isinf(orbit._P(sigma)).any() == (u > 1e30)
                points = [0, *(mp.sqrt(s0) * 4**k for k in range(-1, 200) if mp.sqrt(s0) * 4**k < u), u]
                exact = n * l / mp.sqrt(2 * params.m) * mp.quad(integrand, points)
                angle = orbit._fused(np.array([u]))[2][0]
                assert abs(angle - float(exact)) <= 1e-13 * float(exact)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_valid_huge_steps_warn_of_nothing(self, n):
        # the steps return the right state; an overflow on the way is the
        # far forms' business, not the caller's.  At t = 1e229 (n = 3) G
        # overflows where sigma**2 does not, so T's integrand takes its far
        # form there
        params = ModelParams(n=n, d=2, eps=0.1)
        x = PhasePoint(np.array([0.05, 0.0]), np.array([0.0, 20.0]))
        speed = np.sqrt(2.0 * hamiltonian(params, x) / params.m)
        for t in (1e60, -1e60, 1e100, 1e150, -1e150, 1e200, 1e229, -1e229, 1e250, 1e300, -1e300):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                y = chart.global_flow(params, x, t).x
            assert np.hypot(*y.q) / abs(t) == pytest.approx(speed, rel=1e-12)

    @pytest.mark.parametrize(
        "q,p",
        [
            # the state `simulate` reaches after one step of 5e149 from
            # q = (0.05, 0), p = (0, 20) (n = 3): E s**n overflows at the
            # pericenter root's first start s = l**2/(2mZ), and far out the
            # remainder of the swept angle overflows its denominator
            # (l = 6.7e148)
            ([-1.67e150, 8.37e150], [-3.34, 16.7]),
            ([1e120, 0.0], [0.0, 1.0]),
        ],
    )
    def test_far_out_start_moves_on_a_straight_line(self, q, p):
        # the force at r = 1e120 bends nothing in float precision
        params = ModelParams(n=3, d=2, eps=0.1)
        x = PhasePoint(np.array(q), np.array(p))
        for t in (1.0, -1.0, 1e20, 1e100, 1e150, -1e150, 1e160, -1e160, 1e200, 1e250, 1e300, -1e300):
            y = chart.global_flow(params, x, t).x
            line = x.q + x.p * (t / params.m)
            scale = np.hypot(*line)
            assert np.hypot(*(y.q / scale - line / scale)) <= 1e-12
            assert np.hypot(*(y.p - x.p)) <= 1e-12 * np.hypot(*x.p)

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_huge_energy_start_moves_on_a_straight_line(self, n):
        # kinetic energy up to 1e160 times the potential at r = 1: from
        # s = l**2/(2mZ) the pericenter root needs more Newton steps than
        # the cap allows (n >= 3), and the n = 2 discriminant overflows
        params = ModelParams(n=n, d=2, eps=0.1)
        for P in (1e20, 1e40, 1e80):
            x = PhasePoint(np.array([1.0, 0.0]), np.array([-0.3 * P, P]))
            for t in (1e-3 / P, 1.0 / P, 1e3 / P, -1.0 / P):
                y = chart.global_flow(params, x, t).x
                line = x.q + x.p * (t / params.m)
                assert np.linalg.norm(y.q - line) <= 1e-12 * np.linalg.norm(line)
                assert np.linalg.norm(y.p - x.p) <= 1e-12 * P

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize(
        "q,p",
        [
            # n E overflows the pericenter Newton's slope, which read NaN at s = 0
            ([1e-100, 0.0], [1.2e154, 0.0]),
            # E P overflows in the swept angle's remainder, whose far form
            # then read 0 (n = 3: the state turned by pi) or overflowed
            ([1e-10, 0.0], [0.0, 1.2e154]),
            ([1e-3, 0.0], [0.0, 1e150]),
            ([1e-10, 0.0, 0.0], [3e153, 1.1e154, 1e150]),
        ],
    )
    def test_huge_energy_near_the_origin_moves_on_a_straight_line(self, n, q, p):
        params = ModelParams(n=n, d=len(q), eps=0.1)
        x = PhasePoint(np.array(q), np.array(p))
        scale = 1e150  # |q|**2 and |p|**2 overflow at these scales
        for t in (1e-20, 1e-3, 1.0):
            y = chart.global_flow(params, x, t).x
            line = x.q + x.p * (t / params.m)
            assert np.linalg.norm((y.q - line) / scale) <= 1e-12 * np.linalg.norm(line / scale)
            assert np.linalg.norm((y.p - x.p) / scale) <= 1e-12 * np.linalg.norm(x.p / scale)

    @pytest.mark.parametrize("p", [[1e154, 0.0], [1e154, 1e150]])
    def test_kepler_energy_near_the_float_range_moves_on_its_line(self, p):
        # n = 2 with m < 1: 2 E overflows where E l2 does not (E = 1e308),
        # which made the radial start's pericenter NaN and the other's
        # discriminant root inf
        params = ModelParams(n=2, d=2, m=0.5)
        x = PhasePoint(np.array([1e-100, 0.0]), np.array(p))
        scale = 1e150
        for t in (1e-160, 1e-3):
            y = chart.global_flow(params, x, t).x
            line = x.q + x.p * (t / params.m)
            assert np.linalg.norm((y.q - line) / scale) <= 1e-12 * np.linalg.norm(line / scale)
            assert np.linalg.norm((y.p - x.p) / scale) <= 1e-12 * np.linalg.norm(x.p / scale)
        E = hamiltonian(params, x)
        for l2 in (0.0, 1e-92, 1e100, 1e300):  # E l2 overflows from 1e100, the second start's l2
            rows = chart.r_min_kepler(params, np.array([E, E]), np.array([l2, l2]))
            one = chart.r_min_kepler(params, E, l2)
            assert np.isfinite(rows).all() and rows[0].tobytes() == rows[1].tobytes() == np.float64(one).tobytes()


class TestDebugLog:
    @pytest.mark.parametrize(
        "n,start,t,kind,periods",
        [
            (3, PhasePoint(np.array([0.3, 0.1]), np.array([0.2, 0.9])), 0.01, "bound", "0.0"),
            # from the pericenter of a Kepler orbit with E = -1/2, so a = 1 and P = 2 pi
            (2, PhasePoint(np.array([0.4, 0.0]), np.array([0.0, 2.0])), 10.25 * 2.0 * np.pi,
             "bound", "10.0"),
            (3, PhasePoint(np.array([0.05, 0.0]), np.array([-12.0, 1.0])), 0.01, "unbound", "0.0"),
            (3, chart.Collision(h=-0.5, a=np.array([1.0, 0.0])), 0.01, "collision orbit", "0.0"),
            (2, PhasePoint(np.array([0.05, 0.0]), np.array([3.0, 0.0])), 0.01, "collision orbit", "0.0"),
            (1, PhasePoint(np.array([0.05, 0.0]), np.array([3.0, 1.0])), 0.01, "n = 1 line", "0.0"),
        ],
        ids=["bound", "bound-periods", "unbound", "collision-start", "radial", "line"],
    )
    def test_one_line_per_call(self, caplog, n, start, t, kind, periods):
        params = ModelParams(n=n, d=2, eps=0.1)
        with caplog.at_level(logging.DEBUG, logger="mcgehee"):
            chart.global_flow(params, start, t)
        (line,) = [r.getMessage() for r in caplog.records]
        assert line.startswith(f"global_flow {kind} orbit t={t!r} periods={periods} newton_iterations=")
        fields = dict(f.split("=") for f in line.split() if "=" in f)
        iterations, residual = int(fields["newton_iterations"]), float(fields["residual"])
        assert (iterations == 0) == (n == 1) == (int(fields["node_passes"]) == 0) and iterations <= chart._SOLVE_MAX_ITER
        # the final |T(x) - t| of the solve, near the rounding of the time it solved for
        assert (residual == 0.0) if n == 1 else (0.0 <= residual <= 1e-13 * abs(t))

    def test_silent_below_debug(self, caplog, monkeypatch):
        # the line, its record and the residual's extra pass of T, only when DEBUG is on
        monkeypatch.setattr(chart.log, "debug", lambda *args: pytest.fail("logged"))
        monkeypatch.setattr(chart.Solve, "residual", lambda self: pytest.fail("residual taken"))
        monkeypatch.setattr(chart, "counting", lambda: pytest.fail("record opened"))
        with caplog.at_level(logging.INFO, logger="mcgehee"):
            chart.global_flow(ModelParams(n=3, d=2), PhasePoint(np.array([0.3, 0.1]), np.array([0.2, 0.9])), 0.01)
        assert not caplog.records

    def test_logged_node_passes_are_the_records(self, caplog):
        # the line's node passes come from a record opened only under DEBUG
        # and read before the residual's pass: what an enclosing record sees
        # of the same call below DEBUG, and one pass fewer than it sees under DEBUG
        params = ModelParams(n=3, d=2, eps=0.1)
        bound = PhasePoint(np.array([0.3, 0.1]), np.array([0.2, 0.9]))
        unbound = PhasePoint(np.array([0.05, 0.0]), np.array([-12.0, 1.0]))
        calls = [lambda: chart.global_flow(params, bound, 7.5), lambda: chart.global_flow(params, unbound, 0.01),
                 lambda: chart.trajectory(params, unbound, [0.0, 0.01, -0.02, 0.03]),
                 lambda: chart.global_flow(ModelParams(n=1, d=2), unbound, 0.01)]
        for call in calls:
            with chart.counting() as quiet:
                call()
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="mcgehee"), chart.counting() as debug:
                call()
            (line,) = [r.getMessage() for r in caplog.records]
            logged = int(dict(f.split("=") for f in line.split() if "=" in f)["node_passes"])
            assert logged == len(quiet.passes) == len(debug.passes) - (logged > 0)


class TestUnboundSteps:
    """Unbound steps of a tenth of a time scale (`unbound_chains`): Newton's
    first guess from the 8-node rule on the step's own interval, and one
    node pass that places the start and takes the first round."""

    def test_steps_take_about_one_round_and_one_pass(self):
        # the work lines over these steps: 1.039 rounds and 1.053 passes
        # measured, 4.164 and 6.203 before (the end angle's pass inside
        # `state` uncounted there)
        digests = load_digests()
        calls = unbound_chains()
        crossings = sum(calls[i][1].radial < 0.0 < calls[i + 1][1].radial for i in range(len(calls) - 1) if i % 16 != 15)
        assert crossings >= 10  # 23 measured
        rounds, passes = digests.flow_rounds(calls)["unbound"], digests.flow_passes(calls)["unbound"]
        assert len(rounds) == len(passes) == len(calls) == 768
        assert np.mean(rounds) <= 1.3 and np.mean(passes) <= 2.5

    def test_a_rule_that_gives_up_runs_once(self, monkeypatch):
        # a pericenter passage where dT/du falls far below its value at the
        # start: from the tangent at the start the short-step rule gave up
        # after its 8 rounds, and the doubling bracket took 12 node passes.
        # From the root with G frozen at G0 it converges: one guess, 3
        # node passes (the start stacked on the first round), the end angle
        # carried
        params = ModelParams(n=4, d=2, eps=0.1)
        orbit = chart._RadialOrbit(params, np.array([405.0]), np.array([0.253]))
        u0 = 0.344
        sigma = orbit.s0[0] + u0 * u0
        radial = -np.sqrt(2.0 * params.m * orbit.G(np.array([[sigma]]))[0, 0]) * u0  # inbound at u0
        guesses, rule = [], chart._RadialOrbit.step_guess
        monkeypatch.setattr(chart._RadialOrbit, "step_guess", lambda self, *a: guesses.append(rule(self, *a)) or guesses[-1])
        with chart.counting() as work:
            step = chart._step(orbit, sigma, radial, 0.00178)
        assert len(guesses) == 1 and len(work.passes) <= 3 and step.solve.carried is not None

    def test_the_rule_converges_on_every_step(self, monkeypatch):
        # `step_guess` refines `_start` by the short-step rule, or returns
        # the start where the rule has not converged.  Over every unbound
        # step of `flow_calls()` and every `certify_calls()` inversion the
        # guess is the rule's: it differs from the start, or the start is
        # the root already (n = 1 and E = 0, where T_m is T).  The unbound
        # steps take 1.581 node passes, at most 3 (3.946 and 17 while the
        # rule gave up on 16 of the 74 and the doubling bracket took over)
        digests = load_digests()
        misses, starts, guesses = [], [], []
        step, step_guess, start = chart._step, chart._RadialOrbit.step_guess, chart._RadialOrbit._start

        def stepped(orbit, *args):
            starts.clear(), guesses.clear()
            out = step(orbit, *args)
            if isinstance(orbit, chart._RadialOrbit):
                (U,), ((g,),), x = starts, guesses, out.solve.x[0]
                if g == abs(U) and not abs(g - x) <= 1e-8 * x:
                    misses.append((orbit, args))
            return out

        monkeypatch.setattr(chart._RadialOrbit, "_start", lambda self, *a: starts.append(start(self, *a)) or starts[-1])
        monkeypatch.setattr(chart._RadialOrbit, "step_guess", lambda self, *a: guesses.append(step_guess(self, *a)) or guesses[-1])
        monkeypatch.setattr(chart, "_step", stepped)
        for params, x, t in digests.flow_calls():
            chart.global_flow(params, x, t)
        for params, x, _ in digests.certify_calls():
            chart.chart_inverse(params, chart.chart_forward(params, x))
        assert not misses
        monkeypatch.undo()
        passes = digests.flow_passes(digests.flow_calls())["unbound"]
        assert len(passes) == 74 and np.mean(passes) <= 2.0 and max(passes) <= 6

    def test_every_step_carries_its_end_angle(self, monkeypatch):
        # every round is a node pass with the angle, so no unbound step
        # reads the end angle in a pass of its own: none follows its solve
        solved, fused, place = [False], chart._RadialOrbit._fused, chart._RadialOrbit.place

        def checked(self, *args, **kwargs):
            assert not solved[0], "a node pass after the solve"
            return fused(self, *args, **kwargs)

        def placed(self, *args):
            out = place(self, *args)
            solved[0] = True
            return out

        def stepped(orbit, *args):
            solved[0] = False
            steps.append((orbit, step(orbit, *args)))
            return steps[-1][1]

        monkeypatch.setattr(chart._RadialOrbit, "_fused", checked)
        monkeypatch.setattr(chart._RadialOrbit, "place", placed)
        steps, step = [], chart._step
        monkeypatch.setattr(chart, "_step", stepped)
        for params, x, t in flow_calls() + unbound_chains(ns=(4,), starts=2):
            try:
                chart.global_flow(params, x, t)
            except DomainError:
                pass
        unbound = [s.solve for orbit, s in steps if isinstance(orbit, chart._RadialOrbit) and s.solve is not None]
        assert len(unbound) >= 180 and all(sol.carried is not None for sol in unbound)  # 202 steps

    def test_short_steps_are_dop853s(self):
        # n = 3-5, each step whose path keeps beyond a quarter of |q| from
        # the origin, pericenter crossings included: 1.25e-13 measured, as
        # before; two deeper pericenter passes read 2e-12 and 2e-11 at both
        worst, checked = 0.0, 0
        for params, x, dt in unbound_chains(ns=(3, 4, 5)):
            got = flow(params, x, dt)
            through = x.radial < 0.0 < got.radial
            closest = chart.r_min(params, hamiltonian(params, x), l_squared_point(x)) if through else min(x.r, got.r)
            if closest >= 0.25 * x.r:
                worst = max(worst, state_error(params, got, physical_flow(params, x, dt)))
                checked += 1
        assert checked >= 550 and worst <= 3e-13


class TestTrajectory:
    """`chart.trajectory`: one orbit placed at many times, row for row
    `global_flow` from the same start."""

    # multiples of each call's time: both signs, a 0, and out of order
    TIMES = (0.5, -1.0, 0.0, 0.01, -0.3, 1.0, 3.0, 10.0)

    def test_rows_are_global_flows(self):
        # bit for bit on most rows; where an unbound row's Newton starts from
        # the row before, or a bound row's powers round as an array's, within
        # 4e-15 of the state's scale (9.8e-16 measured)
        same = total = 0
        for params, start, t in flow_calls():
            ts = [c * t for c in self.TIMES]
            for s, row in zip(ts, chart.trajectory(params, start, ts)):
                want = chart.global_flow(params, start, s)
                assert type(row) is type(want)
                total += 1
                if isinstance(want, chart.Collision):
                    same += row.h == want.h and row.a.tobytes() == want.a.tobytes()
                    assert row.h == want.h and np.allclose(row.a, want.a, rtol=0.0, atol=4e-15)
                    continue
                same += row.x.q.tobytes() == want.x.q.tobytes() and row.x.p.tobytes() == want.x.p.tobytes()
                assert state_error(params, row.x, want.x) <= 4e-15
        assert total == 1600 and same >= 0.9 * total  # 1525 measured

    def test_bound_steps_take_about_one_newton_round(self):
        # Newton's first guess from the orbit's cosine series: the work line
        # of tools/digests.py, 1.08 measured (2.98 with the trapezoid table)
        rounds = load_digests().flow_rounds(flow_calls())
        assert len(rounds["bound"]) >= 80 and np.mean(rounds["bound"]) <= 1.2

    def test_bound_steps_take_few_node_passes(self):
        # one pass stacks pi/2, the start and Newton's first round where the
        # series guess holds; steps over more than two periods, or ending
        # where the series time has lost its relative precision, take the
        # start's pass and then their rounds: the work line of
        # tools/digests.py, 123 passes for 86 steps measured (3.081 a step
        # with separate start, Newton and angle passes)
        passes = load_digests().flow_passes(flow_calls())["bound"]
        assert len(passes) >= 80 and np.mean(passes) <= 1.431

    def test_an_extra_pass_per_step_trips_the_pass_ratchets(self, monkeypatch):
        # the negative control of the node-pass ratchets: a `place` that
        # makes one more `_fused` call reads exactly one more pass on every
        # step of `flow_calls()`, bound 1.430 -> 2.430 and unbound 1.581 ->
        # 2.581, above the 1.431 and 2.0 that the ratchets hold
        digests = load_digests()
        before = digests.flow_passes(flow_calls())

        def padded(place):
            def one_more_pass(self, *args):
                self._fused(np.zeros(1))
                return place(self, *args)
            return one_more_pass

        for cls in (chart._BoundOrbit, chart._RadialOrbit):
            monkeypatch.setattr(cls, "place", padded(cls.place))
        after = digests.flow_passes(flow_calls())
        for kind in ("bound", "unbound"):
            assert len(before[kind]) >= 74 and after[kind] == [k + 1 for k in before[kind]]
        assert np.mean(after["bound"]) > 1.431 and np.mean(after["unbound"]) > 2.0
        # `time` reads `_fused` without the angle: one pass, not two
        orbit = chart._RadialOrbit(ModelParams(n=3, d=2), np.array([1.0]), np.array([0.1]))
        with chart.counting() as work:
            orbit.time(np.array([0.01, 0.02]))
        assert work.passes == [chart._RadialOrbit]

    def test_rows_at_zero_are_the_start(self):
        params = ModelParams(n=3, d=2, eps=0.1)
        x = PhasePoint(np.array([0.3, 0.1]), np.array([0.2, 0.9]))
        launch = chart.Collision(h=-0.5, a=np.array([1.0, 0.0]))
        for start in (x, launch):
            rows = chart.trajectory(params, start, [0.0, 0.2, 0.0, -0.0])
            assert [type(r) for r in rows] == [type(rows[0]), chart.Regular, type(rows[0]), type(rows[0])]
            assert rows[0] is rows[2] is rows[3] and (rows[0] is launch or rows[0].x is x)
        assert chart.trajectory(params, x, [0.0])[0].x is x and chart.trajectory(params, x, []) == []

    def test_rows_on_the_collision(self):
        # a launch from the collision set is back on it after whole periods
        # of its collision orbit, where `global_flow` returns `Collision` too
        params = ModelParams(n=2, d=2, eps=0.1)
        launch = chart.Collision(h=-0.5, a=np.array([0.6, 0.8]))
        P = chart._BoundOrbit(params, -0.5, 0.0).period  # 2 pi: a = 1; the times are its multiples in floats
        rows = chart.trajectory(params, launch, [0.5 * P, P, 2.0 * P, -P])
        for row, t in zip(rows, (0.5 * P, P, 2.0 * P, -P)):
            want = chart.global_flow(params, launch, t)
            assert type(row) is type(want)
        assert isinstance(rows[1], chart.Collision) and rows[1].h == -0.5
        assert np.allclose(rows[1].a, launch.a, rtol=0.0, atol=1e-15)

    def test_n1_rows_move_on_the_line(self):
        params = ModelParams(n=1, d=2, eps=0.1)
        x = PhasePoint(np.array([0.05, 0.0]), np.array([-3.0, 0.0]))
        hit = 0.05 / 3.0
        rows = chart.trajectory(params, x, [0.01, hit, 0.1])
        for row, t in zip(rows, (0.01, hit, 0.1)):
            want = chart.global_flow(params, x, t)
            assert type(row) is type(want)
            assert isinstance(row, chart.Collision) or row.x.q.tobytes() == want.x.q.tobytes()

    @pytest.mark.parametrize(
        "n,start,ts,what,failing",
        [
            (3, PhasePoint(np.array([0.05, 0.0]), np.array([0.0, 20.0])), [0.0, 1e307, 2e307, 3e307], "end state", 2e307),
            (3, PhasePoint(np.array([1e200, 0.0]), np.array([0.0, 1.0])), [0.0, 0.5, 1.0], "start's radius", 0.5),
            (3, PhasePoint(np.array([0.05, 0.0]), np.array([0.0, 1.0])), [0.0, 0.5, float("inf")], "time", float("inf")),
            (1, PhasePoint(np.array([0.05, 0.0]), np.array([1e300, 0.0])), [1.0, 1e10], "end state", 1e10),
        ],
        ids=["end", "start", "time", "line"],
    )
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_first_refused_time_raises(self, n, start, ts, what, failing):
        params = ModelParams(n=n, d=2, eps=0.1)
        message = f"the {what}.* not finite.* after t={re.escape(repr(failing))}$"
        with pytest.raises(DomainError, match=message):
            chart.trajectory(params, start, ts)
        with pytest.raises(DomainError, match=message):
            chart.global_flow(params, start, failing)

    @pytest.mark.parametrize("E,l", [(0.7, 0.2), (5.0, 0.0)])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_sample_on_a_radial_orbit_is_step_by_step(self, monkeypatch, n, E, l):
        # one time per `place`, each from the row before, against `_step`
        # from the pericenter (radial None) at each time alone; the two
        # Newton solves start apart and stop within their tolerance, a few
        # ulps of u, which r = sigma**(n/2) scales by n (1.4e-15 measured)
        params = ModelParams(n=n, d=2)
        orbit = chart._RadialOrbit(params, np.array([E]), np.array([l]))
        ts = np.linspace(-3.0, 5.0, 41)
        place, passes = orbit.place, []
        monkeypatch.setattr(orbit, "place", lambda part, start: passes.append(len(part)) or place(part, start))
        got = chart._sample(orbit, ts)
        assert passes == [1] * len(ts)
        monkeypatch.undo()
        for k, t in enumerate(ts.tolist()):
            want = chart._step(orbit, 0.0, None, t)
            assert got.periods[k] == want.periods == 0.0 and got.pericenter[k] == want.pericenter
            for field in ("r", "p_r", "swept"):
                assert getattr(got, field)[k] == pytest.approx(getattr(want, field), rel=4e-15, abs=1e-300, nan_ok=True)
            if k == 0:  # from the same start, so the same bits
                assert (got.r[0], got.p_r[0], got.swept[0]) == (want.r, want.p_r, want.swept)
        assert got.solve.residual() <= 1e-15 * ts.max()

    def test_one_debug_line_per_call(self, caplog):
        params = ModelParams(n=2, d=2, eps=0.1)
        # from the pericenter of a Kepler orbit with E = -1/2, so a = 1 and P = 2 pi
        x = PhasePoint(np.array([0.4, 0.0]), np.array([0.0, 2.0]))
        with caplog.at_level(logging.DEBUG, logger="mcgehee"):
            chart.trajectory(params, x, [0.0, 1.0, -10.25 * 2.0 * np.pi, 3.0])
        (line,) = [r.getMessage() for r in caplog.records]
        assert line.startswith("trajectory bound orbit rows=4 periods=10.0 newton_iterations=")
        fields = dict(f.split("=") for f in line.split() if "=" in f)
        assert 0 < int(fields["newton_iterations"]) <= chart._SOLVE_MAX_ITER
        assert 0.0 <= float(fields["residual"]) <= 1e-13 * 65.0


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
