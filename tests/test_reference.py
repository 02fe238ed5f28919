"""An independent reference flow for n = 2: Kepler's problem in universal
variables (Danby, *Fundamentals of Celestial Mechanics*, 2nd ed., §6.9;
Battin, *An Introduction to the Mathematics and Methods of Astrodynamics*,
ch. 4), in mpmath at 40 digits.

It shares no code with the chart or the covering.  The universal anomaly
chi of a time t solves Kepler's equation t(chi) = t, where
dt/dchi = r/sqrt(mu) >= 0, by Newton kept inside a bracket.  Then
q = f q0 + g v0 and v = f' q0 + g' v0 with Stumpff's c2 and c3.  The
formulas are analytic in chi, so a collision orbit (l = 0) comes back
along its ray, as the extended flow does for even n.

`simulate` writes one orbit sampled at many times, so its rows are held to
the reference; a chain of restarts from rounded states drifted from it by
3.3e-14 and 1.3e-10 on the rows that the two scenarios below check.
"""

import json
import math

import mpmath as mp
import numpy as np
import pytest

from mcgehee import chart, cli
from mcgehee.model import ModelParams, PhasePoint

from test_digests import load_digests
from test_flow import state_error

DIGITS = 40


def stumpff(z):
    """Stumpff's c2(z) and c3(z): their power series for |z| < 1, else the
    closed forms in cos and sin (cosh and sinh for z < 0)."""
    if abs(z) < 1:
        c2 = c3 = mp.mpf(0)
        for k in range(30):  # the 30th terms are below 1/61! ~ 1e-84
            c2 += (-z) ** k / mp.factorial(2 * k + 2)
            c3 += (-z) ** k / mp.factorial(2 * k + 3)
        return c2, c3
    s = mp.sqrt(abs(z))
    if z > 0:
        return (1 - mp.cos(s)) / z, (s - mp.sin(s)) / s**3
    return (mp.cosh(s) - 1) / -z, (mp.sinh(s) - s) / s**3


def kepler_flow(params, q0, p0, t) -> PhasePoint:
    """The n = 2 state at time t from (q0, p0), rounded to floats."""
    assert params.n == 2
    with mp.workdps(DIGITS):
        mu = mp.mpf(params.Z) / params.m
        rmu = mp.sqrt(mu)
        q0 = [mp.mpf(float(v)) for v in q0]
        v0 = [mp.mpf(float(v)) / params.m for v in p0]
        r0 = mp.sqrt(sum(v * v for v in q0))
        sigma0 = sum(a * b for a, b in zip(q0, v0)) / rmu
        alpha = 2 / r0 - sum(v * v for v in v0) / mu  # 1 / semi-major axis
        t = mp.mpf(float(t))

        def at(chi):
            """Time and radius at chi, and c2, c3 there."""
            z = alpha * chi * chi
            c2, c3 = stumpff(z)
            time = (sigma0 * chi**2 * c2 + (1 - alpha * r0) * chi**3 * c3 + r0 * chi) / rmu
            r = chi**2 * c2 + sigma0 * chi * (1 - z * c3) + r0 * (1 - z * c2)
            return time, r, c2, c3

        # t(chi) increases from t(0) = 0; the bracket grows from the tangent at 0
        lo, hi = mp.mpf(0), rmu * abs(t) / r0
        if t < 0:
            lo, hi = -hi, lo
        while (at(hi)[0] < t) if t > 0 else (at(lo)[0] > t):
            lo, hi = (hi, 2 * hi) if t > 0 else (2 * lo, lo)
        chi = (lo + hi) / 2
        for _ in range(400):
            time, r = at(chi)[:2]
            lo, hi = (chi, hi) if time < t else (lo, chi)
            new = chi - (time - t) * rmu / r if r > 0 else lo - 1
            if not lo < new < hi:
                new = (lo + hi) / 2
            done = abs(new - chi) <= mp.mpf(10) ** (5 - DIGITS) * max(1, abs(chi))
            chi = new
            if done:
                break
        time, r, c2, c3 = at(chi)
        z = alpha * chi * chi
        f, g = 1 - chi**2 * c2 / r0, t - chi**3 * c3 / rmu
        df, dg = rmu * chi * (z * c3 - 1) / (r * r0), 1 - chi**2 * c2 / r
        q = [f * a + g * b for a, b in zip(q0, v0)]
        p = [params.m * (df * a + dg * b) for a, b in zip(q0, v0)]
        return PhasePoint(np.array([float(v) for v in q]), np.array([float(v) for v in p]))


def simulate_rows(tmp_path, cfg):
    """simulate's CSV rows for cfg as (t, q, p)."""
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    assert cli.main(["simulate", "--config", str(config), "--out", str(tmp_path)]) == cli.EXIT_OK
    d = cfg["params"]["d"]
    rows = []
    for line in (tmp_path / "trajectory.csv").read_text(encoding="utf-8").splitlines()[1:]:
        v = line.split(",")
        rows.append((float(v[0]), np.array(v[1 : 1 + d], dtype=float), np.array(v[1 + d : 1 + 2 * d], dtype=float)))
    return rows


def worst_error(params, start, rows):
    return max(state_error(params, PhasePoint(q, p), kepler_flow(params, *start, t)) for t, q, p in rows)


class TestReference:
    """The reference against closed forms that need no root."""

    def test_circular_orbit_turns_at_its_rate(self):
        # r = 1, v = 1: the angle at t is t
        params = ModelParams(n=2, d=2)
        for t in (0.3, -2.0, 40.0):
            x = kepler_flow(params, [1.0, 0.0], [0.0, 1.0], t)
            assert np.allclose(x.q, [np.cos(t), np.sin(t)], rtol=0.0, atol=1e-15)
            assert np.allclose(x.p, [-np.sin(t), np.cos(t)], rtol=0.0, atol=1e-15)

    def test_radial_orbit_bounces_on_its_ray(self):
        # from rest at r = 1 (mu = 1) the collision comes at pi / (2 sqrt(2)),
        # and the orbit is back at rest at r = 1 after twice that
        params = ModelParams(n=2, d=2)
        t_c = np.pi / (2.0 * np.sqrt(2.0))
        x = kepler_flow(params, [1.0, 0.0], [0.0, 0.0], 2.0 * t_c)
        assert np.allclose(x.q, [1.0, 0.0], rtol=0.0, atol=1e-14) and np.abs(x.p).max() <= 1e-13
        near = kepler_flow(params, [1.0, 0.0], [0.0, 0.0], t_c * (1.0 - 1e-6))
        assert 0.0 < near.q[0] < 1e-3 and near.p[0] < 0.0


class TestSimulateIsKeplers:
    """`simulate`'s rows for n = 2 against the reference, in `state_error`'s
    form: positions relative to |q|, momenta to the larger of |p| and the
    potential's momentum scale."""

    def test_collision_orbit(self, tmp_path):
        # the `simulate n=2` digest scenario: a radial bound orbit that
        # bounces off the collision; every row but the start
        cfg = load_digests().SIMULATE["simulate n=2"]
        params = ModelParams(**cfg["params"])
        rows = simulate_rows(tmp_path, cfg)
        assert len(rows) == 50
        assert worst_error(params, (cfg["initial"]["q"], cfg["initial"]["p"]), rows[1:]) <= 1e-14

    def test_bound_orbit_over_twenty_periods(self, tmp_path):
        # 2000 outputs over [0, 50], about 21 radial periods; every 50th row
        cfg = {"params": {"n": 2, "d": 2, "eps": 0.1}, "initial": {"q": [1.0, 0.0], "p": [0.0, 0.3]},
               "t_span": [0.0, 50.0], "output_points": 2000}
        params = ModelParams(**cfg["params"])
        rows = simulate_rows(tmp_path, cfg)[49::50]
        assert len(rows) == 40
        assert worst_error(params, ([1.0, 0.0], [0.0, 0.3]), rows) <= 5e-12


class TestTinyRadius:
    """Starts with |q| below 1.5e-154, where <q,q> and sigma**n = |q|**2
    are not normal floats: before, r and the plane lost up to 5.6e-6 at
    |q| = 1e-160, bound orbits up to 2e-4, and |q| = 1e-170 read as q = 0.
    The reference's Newton stops on an absolute step, so it runs on the
    start scaled by the Kepler symmetry q -> 4**k q, p -> 2**-k p,
    t -> 8**k t, which is exact in floats and in mpmath."""

    @pytest.mark.parametrize(
        "q,p",
        [
            ([1e-160, 0.0, 0.0], [0.0, 1e-30, 0.0]),  # bound, nearly radial
            ([6e-171, 8e-171, 0.0], [3e84, -1e85, 2e84]),  # unbound
            ([1e-170, 2e-171, 3e-171], [1e50, 1e60, 0.0]),  # bound
            ([1e-200, 0.0, 0.0], [1e99, 1e99, 0.0]),  # unbound
        ],
    )
    def test_flow_is_keplers(self, q, p):
        params = ModelParams(n=2, d=3)
        q, p = np.array(q), np.array(p)
        k = 3 - math.frexp(float(np.abs(q).max()))[1] // 2  # not the library's scaling
        Q, P = np.ldexp(q, 2 * k), np.ldexp(p, -k)
        for f in (0.01, 0.7, 5.0):
            t = f * np.linalg.norm(Q) ** 1.5
            want = kepler_flow(params, Q, P, t)
            got = chart.global_flow(params, PhasePoint(q, p), math.ldexp(t, -3 * k)).x
            big = PhasePoint(np.ldexp(got.q, 2 * k), np.ldexp(got.p, -k))
            assert state_error(params, big, want) <= 1e-14

    def test_trajectory_rows_are_keplers(self):
        params = ModelParams(n=2, d=2)
        q, p = np.array([1e-170, 2e-171]), np.array([1e50, 1e60])
        k = 3 - math.frexp(float(np.abs(q).max()))[1] // 2
        Q, P = np.ldexp(q, 2 * k), np.ldexp(p, -k)
        ts = [0.0, 0.3, 2.0, 9.0]
        rows = chart.trajectory(params, PhasePoint(q, p), [math.ldexp(t, -3 * k) for t in ts])
        assert rows[0].x.q is q and rows[0].x.p is p  # the start itself
        for t, row in zip(ts[1:], rows[1:]):
            big = PhasePoint(np.ldexp(row.x.q, 2 * k), np.ldexp(row.x.p, -k))
            assert state_error(params, big, kepler_flow(params, Q, P, t)) <= 1e-14


class TestGlobalFlowIsKeplers:
    """`global_flow` on n = 2 hyperbolas, and on deep n = 2 bound orbits,
    pericenter 1e-3 eps and apocenter 2-5 eps, against the reference.
    Bound orbits take steps within the first
    periods, whose guess comes from the orbit's series, and steps over
    several periods, whose guess waits for the exact period.  The starts
    lie at and near the apocenter, where E has no cancellation: near the
    pericenter its rounding alone moves the period by 1e-12, and the
    error of any float period grows by about 1e-15 a period (1e-14 after
    twelve, at the parent as well)."""

    @staticmethod
    def starts(params):
        """States near the apocenters of the deep orbits, mu = Z/m."""
        mu = params.Z / params.m
        for r_a in (2.0, 3.5, 5.0):
            r_p, r_a = 1e-3 * params.eps, r_a * params.eps
            a, e = 0.5 * (r_a + r_p), (r_a - r_p) / (r_a + r_p)
            h = math.sqrt(mu * a * (1.0 - e * e))  # l / m
            for nu in (np.pi, np.pi + 0.01, np.pi - 0.004):
                r = h * h / (mu * (1.0 + e * math.cos(nu)))
                u, w = np.array([math.cos(nu), math.sin(nu)]), np.array([-math.sin(nu), math.cos(nu)])
                v = (mu / h) * e * math.sin(nu) * u + (h / r) * w
                yield r * u, params.m * v, 2.0 * np.pi * math.sqrt(a**3 / mu)

    def test_steps_are_keplers(self):
        params = ModelParams(n=2, d=2, eps=0.1)
        worst = 0.0
        for q, p, period in self.starts(params):
            for f in (0.013, 0.1, -0.2, 0.3, 1.0, 2.2, -3.0, 7.0, -9.0):
                got = chart.global_flow(params, PhasePoint(q, p), f * period).x
                worst = max(worst, state_error(params, got, kepler_flow(params, q, p, f * period)))
        assert worst <= 1e-14  # 8.3e-15 measured, as at the parent

    @staticmethod
    def hyperbolic_starts(params):
        """States on hyperbolas, mu = Z/m, pericenters 1e-3 to 0.5 eps and
        eccentricities 1.01 to 30, before and after the pericenter, with
        the time scale sqrt(r_p**3 / mu) of each."""
        mu = params.Z / params.m
        for r_p in (1e-3 * params.eps, 0.5 * params.eps):
            for e in (1.01, 4.0, 30.0):
                h = math.sqrt(mu * r_p * (1.0 + e))  # l / m
                nu_max = math.acos(-1.0 / e)  # the asymptote's true anomaly
                for nu in (-0.9 * nu_max, -0.3, 0.05, 0.6 * nu_max):
                    r = h * h / (mu * (1.0 + e * math.cos(nu)))
                    u, w = np.array([math.cos(nu), math.sin(nu)]), np.array([-math.sin(nu), math.cos(nu)])
                    v = (mu / h) * e * math.sin(nu) * u + (h / r) * w
                    yield r * u, params.m * v, math.sqrt(r_p**3 / mu)

    def test_hyperbolic_steps_are_keplers(self):
        # unbound steps of 0.01 to 40 time scales, through the pericenter
        # too: 2.4e-15 measured (2.6e-15 before the short-interval guess)
        params = ModelParams(n=2, d=2, eps=0.1)
        worst = 0.0
        for q, p, scale in self.hyperbolic_starts(params):
            for f in (0.01, -0.1, 1.0, -2.0, 40.0):
                got = chart.global_flow(params, PhasePoint(q, p), f * scale).x
                worst = max(worst, state_error(params, got, kepler_flow(params, q, p, f * scale)))
        assert worst <= 5e-15
