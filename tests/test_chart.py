import collections
import re
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from mcgehee import chart, cli, covering as cov, integrate as ode, verify
from mcgehee.model import (
    DomainError,
    ModelParams,
    PhasePoint,
    hamiltonian,
    l_squared_point,
    physical_field,
    row_dot,
)
from mcgehee.verify import sample_domain_points

from covering_oracle import radius_event
from test_digests import load_digests

GRID = [(n, d) for n in (1, 2, 3, 4) for d in (2, 3)]


def time_scale(params):
    """sqrt(m/Z) eps**(1 + alpha/2): the time a transit of U^eps takes."""
    return np.sqrt(params.m / params.Z) * params.eps ** (1.0 + 0.5 * params.alpha)


def oracle_chart(params, x):
    """Independent oracles for (T, A).

    n = 1 is free motion: A = -p/|p|, T = m <q,p> / |p|**2.  For n = 2, A is
    the classical Kepler vector.  Otherwise A, and T for n >= 2, come from
    the covering-ODE pericenter search.
    """
    if params.n == 1:
        return params.m * x.radial / np.dot(x.p, x.p), -x.p / np.linalg.norm(x.p)
    res = chart.pericenter(params, x)
    if params.n == 2:
        q, p = x.q, x.p
        A = q * np.dot(p, p) - p * np.dot(q, p) - params.m * params.Z * q / x.r
        return res.T, A / np.linalg.norm(A)
    A = res.frame.to_vector(chart._lrl_complex(params, res.P0))
    return res.T, A / np.linalg.norm(A)


def ode_inverse(params, c):
    """Independent oracle: rebuild the pericenter state from (H, |B|, A, B),
    flow it by T with the covering ODE out to r = eps/2, and the rest of T
    with DOP853 on the physical field."""
    n, d = params.n, params.d
    ell = float(np.linalg.norm(c.B))
    e1, e2 = chart._pericenter_frame(n, c.A, c.B / ell)
    q_mag = chart.r_min(params, c.H, ell * ell) ** (1.0 / n)
    P_mag = np.sqrt(2.0 * params.m * (params.Z + c.H * q_mag ** (2 * (n - 1))))
    y0 = cov.covering_state_y(complex(q_mag), 1j * P_mag)
    r_exit = 0.5 * params.eps
    events = (
        radius_event(params, r_exit),
        ode.EventSpec(g=lambda y: y[4] - c.T, direction=ode.ANY, name="t-budget"),
    )
    tau_max = cov.tau_bound(params, r_exit ** (1.0 / n), slack=50.0)
    y1 = cov.transit(params, c.H, y0, np.sign(c.T) * tau_max, events, chart._TIGHT)
    qc, pc = cov.project(params, complex(y1[0], y1[1]), complex(y1[2], y1[3]))
    x = cov.plane_embed(cov.PlaneFrame(e1=e1, e2=e2), qc, pc)
    rest = c.T - float(y1[4])
    if abs(rest) <= 1e-13 * abs(c.T):  # the time budget ran out first
        return x
    traj = ode.integrate(physical_field(params), np.concatenate([x.q, x.p]), (0.0, rest), chart._TIGHT)
    return PhasePoint(traj.ys[-1][:d], traj.ys[-1][d:])


def oracle_points(params, rng):
    """Sampled points both ways along their orbit, points on the pericentric
    surface, and inbound and outbound points close to a collision orbit."""
    pts = []
    for x in sample_domain_points(params, rng, 3):
        pts += [x, PhasePoint(x.q, -x.p)]
    for x in sample_domain_points(params, rng, 2):
        p_perp = x.p - np.dot(x.p, x.q) * x.q / x.r**2
        pts.append(PhasePoint(x.q, p_perp / np.linalg.norm(p_perp) * np.linalg.norm(x.p)))
    for sin in (1e-7, 1e-6, 1e-5, 1e-4, 3e-4):
        x = sample_domain_points(params, rng, 1)[0]
        u = x.q / x.r
        w = rng.normal(size=params.d)
        w -= np.dot(w, u) * u
        w /= np.linalg.norm(w)
        for radial in (-1.0, 1.0):
            v = radial * np.sqrt(1.0 - sin * sin) * u + sin * w
            y = PhasePoint(x.q, np.linalg.norm(x.p) * v)
            if chart.in_U_eps(params, y):
                pts.append(y)
    return pts


def kepler_time_quadrature(params, x):
    """Independent oracle: |T| = sqrt(m) * int_{r_min}^{r} r dr / sqrt(...)
    with the inverse-square-root endpoint removed by r = r_min + u^2."""
    E = hamiltonian(params, x)
    l2 = l_squared_point(x)
    m, Z = params.m, params.Z
    c = l2 / m
    rp = chart.r_min_kepler(params, E, l2)

    def radicand(r):
        return 2.0 * E * r * r + 2.0 * Z * r - c

    def integrand(u):
        r = rp + u * u
        val = radicand(r)
        if val <= 0.0:
            return 0.0
        return 2.0 * u * r / np.sqrt(val)

    u_max = np.sqrt(x.r - rp) if x.r > rp else 0.0
    val, _ = quad(integrand, 0.0, u_max, limit=200)
    return np.sign(x.radial) * np.sqrt(m) * val


def u_eff_bisection_rmin(params, E, l2):
    """Independent oracle: bisection on E = U_eff(r) with
    U_eff = l2/(2 m r^2) - Z r^(-alpha); g < 0 in the forbidden region
    below the pericenter, so the first sign change brackets r_min."""
    m, Z = params.m, params.Z

    def g(r):
        return E - l2 / (2.0 * m * r * r) + Z * r ** (-params.alpha)

    lo = 1e-6
    assert g(lo) < 0.0
    hi = lo
    while g(hi) < 0.0:
        lo = hi
        hi *= 1.1
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def mp_sigma_root(params, E, l2, dps=40):
    """Independent oracle: the smallest root of E s**n + Z s = l2/(2m) by
    bisection at `dps` digits, on [0, min(l2/(2mZ), (l2/(2mE))**(1/n))] for
    E > 0 and on [l2/(2mZ), the peak of E s**n + Z s] for E < 0, where f is
    increasing (by the geometric mean while the bracket spans a factor 2).
    ValueError for E < 0 where l2/(2m) lies above the peak's value
    Z s_peak (n-1)/n: no root, as for a circular orbit's l2 exceeded."""
    with mp.workdps(dps):
        E, Z, n = mp.mpf(E), mp.mpf(params.Z), params.n
        rhs = mp.mpf(l2) / (2 * mp.mpf(params.m))
        if E > 0:
            lo, hi = mp.mpf(0), min(rhs / Z, (rhs / E) ** (mp.mpf(1) / n))
        else:
            lo, hi = rhs / Z, (Z / (n * -E)) ** (mp.mpf(1) / (n - 1))
            if Z * hi * (n - 1) / n < rhs:
                raise ValueError(f"no root: l2/(2m) above the peak for E={E}, l2={l2}")
        while hi - lo > lo * mp.mpf(10) ** -dps:
            mid = mp.sqrt(lo * hi) if lo > 0 and hi > 2 * lo else (lo + hi) / 2
            if E * mid**n + Z * mid < rhs:
                lo = mid
            else:
                hi = mid
        return lo


class TestDomain:
    def test_point_inside(self):
        params = ModelParams(n=2, d=2, eps=0.1)
        x = PhasePoint(np.array([0.05, 0.0]), np.array([-6.0, 1.0]))
        assert chart.in_U_eps(params, x)

    def test_outside_radius(self):
        params = ModelParams(n=2, d=2, eps=0.1)
        x = PhasePoint(np.array([0.2, 0.0]), np.array([-6.0, 1.0]))
        assert not chart.in_U_eps(params, x)

    def test_circular_orbit_excluded(self):
        # a circular orbit has ||p||^2/2m = (1 - 1/n) U < (1 - 1/2n) U,
        # below the domain's kinetic-energy floor
        params = ModelParams(n=2, d=2, eps=0.1)
        r = 0.05
        p_circ = np.sqrt(2.0 * params.m * (1.0 - 1.0 / params.n) * params.Z * r ** (-params.alpha))
        x = PhasePoint(np.array([r, 0.0]), np.array([0.0, p_circ]))
        assert not chart.in_U_eps(params, x)

    def test_pericentric_surface(self):
        params = ModelParams(n=2, d=2, eps=0.1)
        x = PhasePoint(np.array([0.05, 0.0]), np.array([0.0, 7.0]))
        assert chart.on_S_eps(params, x)
        x2 = PhasePoint(np.array([0.05, 0.0]), np.array([-6.0, 1.0]))
        assert not chart.on_S_eps(params, x2)


class TestRMin:
    def test_kepler_closed_form_example(self):
        params = ModelParams(n=2, d=2, m=1.0, Z=1.0)
        assert chart.r_min(params, -0.5, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_zero_angular_momentum_is_collision(self):
        params = ModelParams(n=2, d=2)
        assert chart.r_min(params, -0.5, 0.0) == 0.0
        assert chart.r_min(ModelParams(n=3, d=2), 0.5, 0.0) == 0.0

    def test_kepler_zero_energy_branch(self):
        params = ModelParams(n=2, d=2, m=2.0, Z=3.0)
        l2 = 0.7
        assert chart.r_min(params, 0.0, l2) == pytest.approx(l2 / (2 * 2.0 * 3.0))

    def test_n3_against_effective_potential_oracle(self):
        params = ModelParams(n=3, d=2, m=1.0, Z=1.0)
        assert chart.r_min(params, 0.0, 2.0) == pytest.approx(1.0, abs=1e-12)
        for E, l2 in [(0.3, 1.1), (-0.2, 0.4), (0.0, 0.9)]:
            oracle = u_eff_bisection_rmin(params, E, l2)
            assert chart.r_min(params, E, l2) == pytest.approx(oracle, rel=1e-10)

    def test_root_solver_agrees_with_kepler_closed_form(self):
        params = ModelParams(n=2, d=2, m=1.3, Z=0.8)
        for E, l2 in [(0.4, 0.5), (-0.3, 0.3), (0.0, 0.6)]:
            assert chart._r_min_root(params, E, l2) == pytest.approx(
                chart.r_min_kepler(params, E, l2), rel=1e-10
            )

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_newton_against_bisection_oracle(self, n):
        params = ModelParams(n=n, d=2, m=1.3, Z=0.7)
        for E in (-0.5, -1e-3, -1e-9, 0.0, 1e-9, 1e-3, 2.0):
            for l2 in (0.3, 0.6, 0.9):
                try:
                    r = chart.r_min(params, E, l2)
                except chart.NoPericenterError:
                    continue
                assert r == pytest.approx(u_eff_bisection_rmin(params, E, l2), rel=1e-12)

    def test_newton_near_the_circular_threshold(self):
        # l2 just below the circular-orbit maximum: a near-double root
        params = ModelParams(n=3, d=2)
        E = -0.5
        s_peak = (params.Z / (params.n * -E)) ** (1.0 / (params.n - 1))
        l2_max = 2.0 * params.m * (E * s_peak**params.n + params.Z * s_peak)
        r = chart.r_min(params, E, l2_max * (1.0 - 1e-10))
        assert r == pytest.approx(s_peak ** (params.n / 2.0), rel=1e-4)
        assert r < s_peak ** (params.n / 2.0)

    def test_newton_stops_when_its_step_no_longer_moves_s(self):
        # the step falls below half an ulp of s with its sign unchanged:
        # s - step == s, and the solve used to run out its 200 iterations
        params = ModelParams(n=3, d=2)
        E, l2 = 57.16806425569641, 0.2290364125009525
        rhs = l2 / (2.0 * params.m)
        sol = chart._monotone_newton(E, params.Z, params.n, rhs, rhs / params.Z)
        assert sol.iterations <= 12
        assert float(sol.x) == chart._sigma_root(params, E, l2)
        assert chart.r_min(params, E, l2) == pytest.approx(
            u_eff_bisection_rmin(params, E, l2), rel=1e-12
        )

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_scalar_newton_takes_the_steps_of_the_rows(self, n):
        # an array's rows are one float root each: a row's bits and Newton
        # rounds are the float's, and from the pericenter start and from
        # the apocenter start alike a root stops within 12 rounds
        params, rng = ModelParams(n=n, d=2), np.random.default_rng(n)
        for _ in range(100):
            E = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-6.0, 3.0)
            rhs = 10.0 ** rng.uniform(-8.0, 1.0)
            if E < 0.0 and chart._peak(1.0, n, E)[1] <= rhs:
                continue
            with chart.counting() as work:
                rows = chart._sigma_root(params, np.full(3, E), np.full(3, 2.0 * rhs))
                one = chart._sigma_root(params, E, 2.0 * rhs)
            rounds = work.roots
            assert same_bits(rows, np.full(3, one)) and len(rounds) == 4 and len(set(rounds)) == 1
            if E < 0.0:
                rounds.append(chart._monotone_newton(E, 1.0, n, rhs, (1.0 / -E) ** (1.0 / (n - 1.0))).iterations)
            assert max(rounds) <= 12

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 6),
        sign=st.sampled_from([-1.0, 1.0]),
        log_E=st.floats(-6.0, 3.0),
        log_rhs=st.floats(-8.0, 1.0),
        start=st.sampled_from(["pericenter", "apocenter", "double root"]),
        shapes=st.sampled_from([((1,), (1,)), ((), (1,)), ((1,), (1, 1))]),
    )
    def test_one_root_takes_the_steps_of_the_array_loop(self, n, sign, log_E, log_rhs, start, shapes):
        # the float root stops within 12 rounds from both starts; toward the
        # circular orbit's double root, where Newton halves its distance each
        # round, it ends ~sqrt(eps) short, or where the slope is 0 at NaN,
        # not an exception; size-1 input of any shape is the float root in
        # the broadcast shape, the bits that the loop over an array's rows gives
        E, rhs = sign * 10.0**log_E, 10.0**log_rhs
        s = min(rhs, (rhs / E) ** (1.0 / n)) if E > 0.0 else rhs  # `_sigma_root_one`'s start
        if start != "pericenter":
            if E > 0.0 or n == 1:
                return
            peak = chart._peak(1.0, n, E)[1]
            if start == "double root":
                rhs, s = peak, peak
            elif peak < rhs:
                return
            else:
                s = (1.0 / -E) ** (1.0 / (n - 1.0))
        sol = chart._monotone_newton(E, 1.0, n, rhs, s)
        assert type(sol.x) is float
        if start == "double root":
            s_peak = chart._peak(1.0, n, E)[0]
            assert np.isnan(sol.x) or abs(sol.x - s_peak) <= 1e-7 * s_peak
        else:
            assert sol.iterations <= 12
        params, l2 = ModelParams(n=n, d=2), 2.0 * rhs
        try:
            one = chart._sigma_root(params, E, l2)
        except chart.NoPericenterError:
            with pytest.raises(chart.NoPericenterError):
                chart._sigma_root(params, np.full(3, E), np.full(3, l2))
            return
        sized = chart._sigma_root(params, np.full(shapes[0], E), np.full(shapes[1], l2))
        assert type(one) is float and sized.shape == np.broadcast_shapes(*shapes)
        assert same_bits(sized, np.full(sized.shape, one))
        assert same_bits(chart._sigma_root(params, np.full(3, E), np.full(3, l2)), np.full(3, one))

    def test_chart_calls_solve_one_root_in_floats(self, monkeypatch):
        # every pericenter root, a bracket table's stencil rows' too, is one
        # Newton solve in Python floats
        newton, calls = chart._monotone_newton, []

        def floats_only(*args):
            assert [type(v) for v in args] == [float, float, int, float, float], args
            calls.append(args)
            return newton(*args)

        params = ModelParams(n=3, d=2)
        x = sample_domain_points(params, np.random.default_rng(0), 1)[0]
        monkeypatch.setattr(chart, "_monotone_newton", floats_only)
        chart.chart_inverse(params, chart.chart_forward(params, x))
        verify.bracket_table(params, x)
        chart.global_flow(params, PhasePoint(np.array([0.05, 0.0]), np.array([0.0, 50.0])), 0.3)
        assert len(calls) >= 2 + 25 + 1

    def test_overflowing_power_gives_a_nan_root(self):
        # s**n overflows a Python float, or the slope is 0 (-s**3 + 3 s = 2
        # at its double root s = 1): NaN after one round, no exception
        for args in ((1.0, 1.0, 3, 1e300, 1e300), (-1.0, 3.0, 3, 2.0, 1.0)):
            sol = chart._monotone_newton(*args)
            assert np.isnan(sol.x) and sol.iterations == 1

    @staticmethod
    def root_sample():
        """About 200 seeded (params, E, l2): n = 3-8, m in {0.3, 1, 3}, E and
        l2 log-uniform over the float range; per cell a third of the draws
        bound (l2 below the circular threshold, half of them within a
        decade of it) and a quarter with l2/(2mE) below the normal floats.
        Bound draws reach |E| below (Z/n) 1.8e308**(-(n-1)/n), where the
        threshold's s_peak**n overflows."""
        rng = np.random.default_rng(18)
        sample = []
        for n in range(3, 9):
            for m in (0.3, 1.0, 3.0):
                params = ModelParams(n=n, d=2, m=m)
                draws = []
                for j in range(11):
                    if j % 3 == 1:
                        E = -(10.0 ** rng.uniform(-300.0, 307.0))
                        log_peak = np.log10(chart._peak(params.Z, n, E)[1])
                        rhs = 10.0 ** rng.uniform(-300.0 if j % 2 else log_peak - 1.0, log_peak - 0.01)
                    elif j % 4 == 0:  # l2/(2mE) from 1e-300/E to 1e-308
                        log_E = rng.uniform(10.0, 307.0)
                        E, rhs = 10.0**log_E, 10.0 ** (log_E + rng.uniform(-300.0 - log_E, -308.0))
                    else:
                        E, rhs = 10.0 ** rng.uniform(-300.0, 307.0), 10.0 ** rng.uniform(-300.0, 307.0)
                    draws.append((E, 2.0 * m * rhs))
                sample.append((params, draws))
        return sample

    def test_root_over_the_float_range(self):
        # one root and the rows alike to the bit; each within 1e-13 of
        # mpmath and found in at most 8 Newton rounds, l2/(2m|E|) outside
        # the normal floats on either side and for either sign of E
        # included; draws whose root leaves the float range are not
        # checked against mpmath
        checked, wide = 0, collections.Counter()
        for params, draws in self.root_sample():
            Es, l2s = (np.array(v) for v in zip(*draws))
            rows = chart._sigma_root(params, Es, l2s)
            for k, (E, l2) in enumerate(draws):
                with chart.counting() as work:
                    one = chart._sigma_root(params, E, l2)
                rounds = work.roots
                assert type(one) is float and same_bits(np.float64(one), rows[k])
                want = mp_sigma_root(params, E, l2)
                if not np.finfo(float).tiny <= want <= np.finfo(float).max:
                    continue
                assert abs(one - want) <= 1e-13 * want, (params, E, l2)
                assert max(rounds) <= 8, (params, E, l2)
                checked += 1
                ratio = float(l2) / (2.0 * params.m) / abs(float(E))  # inf, not a warning
                if not np.finfo(float).tiny <= ratio < np.inf:
                    wide[E > 0.0, ratio < 1.0] += 1
        assert checked >= 150 and sum(wide.values()) >= 20 and len(wide) == 4, wide

    def test_oracle_reports_no_root_above_the_threshold(self):
        # l2 about 1e148 times the circular threshold's (1.8e-292): the
        # oracle's bracket [l2/(2mZ), s_peak] is inverted there, and it
        # raises, as r_min does, instead of returning its lower end
        params, E, l2 = ModelParams(n=2, d=2, m=1.2e-286, Z=1.2e-141), -4.8e-277, 3.9e-144
        with pytest.raises(ValueError, match="no root"):
            mp_sigma_root(params, E, l2)
        with pytest.raises(chart.NoPericenterError):
            chart.r_min(params, E, l2)
        # just below the threshold the root is the closed form's
        below = 0.999 * (params.m / -E) * params.Z * params.Z / 2.0  # m Z**2 underflows
        assert chart.r_min(params, E, below) == pytest.approx(float(mp_sigma_root(params, E, below)), rel=1e-13)

    @pytest.mark.parametrize("n,l2,m,Z", [(3, 1e300, 1.0, 1.0), (4, 1e200, 1.0, 1.0), (5, 1e120, 1.0, 1.0),
                                          (5, 1e120, 0.7, 1.3)])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_energy_root_is_l2_over_2mZ(self, n, l2, m, Z):
        # at E = 0 the root is sigma0 = l2/(2mZ) itself: Newton from it took
        # E s**n = 0 inf and read NaN; r beyond the float range reads inf.
        # A `_RadialOrbit` at E = 0 with that l, one row and stacked, has
        # that s0 and G0 = Z (l**2/(2m s0), as E s0**(n-1) is 0 inf)
        params = ModelParams(n=n, d=2, m=m, Z=Z)
        s0 = l2 / (2.0 * m * Z)
        want = mp.mpf(s0) ** (mp.mpf(n) / 2)
        r = chart.r_min(params, 0.0, l2)
        assert r == np.inf if want > np.finfo(float).max else r == pytest.approx(float(want), rel=1e-15)
        l = np.sqrt(l2)
        for orbit in (chart._RadialOrbit(params, np.array([0.0]), np.array([l])),
                      chart._RadialOrbit(params, np.zeros(2), np.array([l, 0.2]))):
            assert orbit.s0[0] == pytest.approx(s0, rel=1e-15) and orbit.G0[0] == pytest.approx(Z, rel=1e-15)

    def test_kepler_root_where_E_l2_overflows(self):
        # E l2 = -2.2e399 overflows to -inf, so Z**2 + 2 E l2 / m read -inf
        # and "no pericenter", although l2 is 0.44 of the threshold m Z**2 / 2|E|
        params, E, l2 = ModelParams(n=2, d=2, m=1e200, Z=1e100), -5.917654450028515e100, 3.7019708838301197e298
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            r = chart.r_min(params, E, l2)
        assert r == pytest.approx(float(mp_sigma_root(params, E, l2)), rel=1e-13)

    def test_root_over_the_mass_and_coupling_range(self):
        # n in {2, 3, 4, 5, 8}, m and Z from 1e-300 to 1e300, E of either
        # sign and l2 log-uniform over the float range, with no RuntimeWarning:
        # r_min within 1e-13 of mpmath's root where that is a normal float,
        # inf beyond the float range, and NoPericenterError where mpmath's
        # circular threshold lies below l2/(2m)
        rng, scales, seen = np.random.default_rng(28), (1e-300, 1e-100, 1e-10, 1.0, 1e10, 1e100, 1e300), collections.Counter()
        tiny, huge = mp.mpf(np.finfo(float).tiny), mp.mpf(np.finfo(float).max)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for n in (2, 3, 4, 5, 8):
                for m in scales:
                    for Z in scales:
                        params = ModelParams(n=n, d=2, m=m, Z=Z)
                        for sign in (-1.0, -1.0, 1.0, 1.0):
                            E, l2 = sign * 10.0 ** rng.uniform(-300.0, 300.0), 10.0 ** rng.uniform(-300.0, 300.0)
                            with mp.workdps(40):
                                rhs = mp.mpf(l2) / (2 * mp.mpf(m))
                                s_peak = (mp.mpf(Z) / (n * -mp.mpf(E))) ** (mp.mpf(1) / (n - 1)) if E < 0.0 else None
                                above = E < 0.0 and mp.mpf(Z) * s_peak * (n - 1) / n < rhs
                            if above:
                                with pytest.raises(chart.NoPericenterError):
                                    chart.r_min(params, E, l2)
                                seen["no pericenter"] += 1
                                continue
                            r = chart.r_min(params, E, l2)
                            with mp.workdps(40):
                                want = mp_sigma_root(params, E, l2) ** (mp.mpf(n) / 2)
                                if tiny <= want <= huge:
                                    assert abs(r - want) <= 1e-13 * want, (n, m, Z, E, l2)
                                    seen["normal"] += 1
                                else:
                                    assert (r == np.inf) if want > huge else (r <= 2.0 * float(tiny)), (n, m, Z, E, l2)
                                    seen["beyond"] += 1
        assert seen["normal"] >= 300 and seen["beyond"] >= 50 and seen["no pericenter"] >= 100, seen

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda: chart.r_min(ModelParams(n=3, d=2), 0.5, -1.0), ValueError, "l2 must be non-negative"),
            (lambda: chart.r_min_kepler(ModelParams(n=3, d=2), 0.5, 1.0), ValueError,
             "closed form only available for n = 2"),
            (lambda: chart.chart_inverse(ModelParams(n=2, d=2), chart.ChartPoint(0.1, 1.0, np.zeros(2), np.array([2.0, 0.0]))),
             ValueError, "A must be a unit vector"),
            (lambda: chart.chart_inverse(ModelParams(n=2, d=2), chart.ChartPoint(0.1, 1.0, np.array([0.1, 0.1]), np.array([1.0, 0.0]))),
             ValueError, "B must be perpendicular to A"),
            (lambda: chart.r_min(ModelParams(n=1, d=2), -2.0, 1.0), chart.NoPericenterError,
             "n = 1 requires positive kinetic energy E + Z"),
            (lambda: chart.global_flow(ModelParams(n=1, d=2), chart.Collision(h=-1.0, a=np.array([1.0, 0.0])), 0.5),
             DomainError, "an n = 1 collision launch needs kinetic energy h + Z > 0"),
        ],
        ids=["negative l2", "kepler n=3", "non-unit A", "B not perpendicular", "n=1 no pericenter", "n=1 launch h=-Z"],
    )
    def test_input_checks(self, call, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()

    def test_supercritical_l2_has_no_pericenter(self):
        params = ModelParams(n=2, d=2)
        with pytest.raises(chart.NoPericenterError):
            chart.r_min(params, -0.5, 5.0)
        with pytest.raises(chart.NoPericenterError):
            chart._r_min_root(ModelParams(n=3, d=2), -0.5, 5.0)

    def test_free_case(self):
        params = ModelParams(n=1, d=2, m=1.0, Z=1.0)
        # r = l / sqrt(2m(E+Z))
        assert chart.r_min(params, 1.0, 4.0) == pytest.approx(1.0)


class TestKeplerTime:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_closed_form_matches_quadrature(self, seed):
        params = ModelParams(n=2, d=2, eps=0.1)
        rng = np.random.default_rng(seed)
        for x in sample_domain_points(params, rng, 5):
            tcf = chart.kepler_time_closed_form(params, x)
            assert tcf == pytest.approx(kepler_time_quadrature(params, x), abs=1e-10)

    def test_zero_energy_case(self):
        params = ModelParams(n=2, d=2, eps=0.1)
        r = 0.05
        p_mag = np.sqrt(2.0 * params.m * params.Z / r)  # H = 0
        x = PhasePoint(np.array([r, 0.0]), np.array([-0.6 * p_mag, 0.8 * p_mag]))
        assert hamiltonian(params, x) == pytest.approx(0.0, abs=1e-12)
        tcf = chart.kepler_time_closed_form(params, x)
        assert tcf == pytest.approx(kepler_time_quadrature(params, x), abs=1e-10)

    @pytest.mark.parametrize("d", [2, 3])
    def test_closed_form_matches_chart_quadrature(self, d):
        # sampled points, and near-parabolic ones on both sides of E = 0,
        # where the arcsin and logarithm forms used to lose their digits
        params = ModelParams(n=2, d=d, eps=0.1)
        rng = np.random.default_rng(102)
        pts = sample_domain_points(params, rng, 100)
        for frac in (-1e-3, -1e-6, -1e-9, -1e-12, 0.0, 1e-12, 1e-9, 1e-6, 1e-3):
            for _ in range(4):
                r = rng.uniform(0.25, 0.85) * params.eps
                u = rng.normal(size=d)
                v = rng.normal(size=d)
                p_mag = np.sqrt(2.0 * params.m * (1.0 + frac) * params.Z / r)
                u /= np.linalg.norm(u)
                v /= np.linalg.norm(v)
                pts.append(PhasePoint(r * u, p_mag * v))
        tau = time_scale(params)
        for x in pts:
            T = chart.chart_forward(params, x).T
            assert abs(T - chart.kepler_time_closed_form(params, x)) <= 1e-13 * tau

    def test_matches_numerical_pericenter_time(self):
        params = ModelParams(n=2, d=3, eps=0.1)
        rng = np.random.default_rng(5)
        for x in sample_domain_points(params, rng, 5):
            res = chart.pericenter(params, x)
            assert res.T == pytest.approx(
                chart.kepler_time_closed_form(params, x), abs=1e-10
            )


class TestQuadratureChart:
    @pytest.mark.parametrize("n,d", GRID)
    def test_forward_matches_covering_ode(self, n, d):
        params = ModelParams(n=n, d=d, eps=0.1)
        tau = time_scale(params)
        for x in oracle_points(params, np.random.default_rng(100 + 10 * n + d)):
            c = chart.chart_forward(params, x)
            T, A = oracle_chart(params, x)
            assert abs(c.T - T) <= 1e-10 * tau
            assert np.max(np.abs(c.A - A)) <= 1e-10
            assert c.H == hamiltonian(params, x)

    @pytest.mark.parametrize("n,d", GRID)
    def test_inverse_matches_covering_ode(self, n, d):
        params = ModelParams(n=n, d=d, eps=0.1)
        for x in oracle_points(params, np.random.default_rng(200 + 10 * n + d)):
            c = chart.chart_forward(params, x)
            if np.linalg.norm(c.B) == 0.0:
                continue  # ode_inverse needs B's direction; see TestCollisionOrbitInverse
            back = chart.chart_inverse(params, c)
            oracle = ode_inverse(params, c)
            for y in (x, oracle):
                assert np.max(np.abs(back.x.q - y.q)) <= 1e-10
                assert np.max(np.abs(back.x.p - y.p)) <= 1e-10

    def test_collision_orbit_sweeps_n_quarter_turns(self):
        # l -> 0: the pericenter sits n pi/2 away from the collision ray
        for n in (1, 2, 3, 4):
            params = ModelParams(n=n, d=2, eps=0.1)
            x = PhasePoint(np.array([0.05, 0.0]), np.array([-40.0, 0.0]))
            c = chart.chart_forward(params, x)
            expected = np.array([1.0, 0.0]) * np.real(-(1j**n) * np.exp(0.5j * n * np.pi))
            assert np.allclose(c.A, expected, atol=1e-15)
            assert c.A == pytest.approx(oracle_chart(params, x)[1], abs=1e-10)

    def test_inverse_is_a_step_of_about_one_pass(self, monkeypatch):
        # chart_inverse is `_step` from the pericenter, and makes no solve
        # or node pass of its own.  Over `certify_calls()`: 1.328 passes for
        # n >= 2, at most 3 (2.516 and 10 while a guess the short-step rule
        # gave up on took the doubling bracket; 7.453 when it solved
        # |T| = time(u) itself), 1 for n = 1 (3 before)
        digests = load_digests()
        images = [(params, chart.chart_forward(params, x)) for params, x, _ in digests.certify_calls()]
        stepping, inside, passes = [False], [0], collections.defaultdict(list)
        step, solve = chart._step, chart._solve_increasing

        def counted(*args):
            stepping[0] = True
            try:
                with chart.counting() as work:  # nested in the call's record
                    return step(*args)
            finally:
                stepping[0] = False
                inside[0] += len(work.passes)

        def checked(*args, **kwargs):
            assert stepping[0], "a solve outside the step"
            return solve(*args, **kwargs)

        monkeypatch.setattr(chart, "_step", counted)
        monkeypatch.setattr(chart, "_solve_increasing", checked)
        with chart.counting() as total:
            for params, c in images:
                with chart.counting() as work:
                    chart.chart_inverse(params, c)
                passes[params.n].append(len(work.passes))
        assert len(total.passes) == inside[0] >= len(images)
        many = [k for n, ks in passes.items() if n >= 2 for k in ks]
        assert np.mean(many) <= 1.5 and max(many) <= 3 and max(passes[1]) <= 3

    def test_inverse_rejects_times_beyond_the_domain(self):
        params = ModelParams(n=3, d=2, eps=0.1)
        x = sample_domain_points(params, np.random.default_rng(7), 1)[0]
        c = chart.chart_forward(params, x)
        # the orbit leaves r < eps after a time of order the transit scale
        far = chart.ChartPoint(T=10.0 * time_scale(params), H=c.H, B=c.B, A=c.A)
        with pytest.raises(chart.ChartDomainError):
            chart.chart_inverse(params, far)
        # a confined orbit (H < 0) leaves U^eps through its energy floor
        # before it reaches eps or its apocenter
        r = 0.05
        U = params.Z * r**-params.alpha
        H = -0.9 * U / (2 * params.n)  # just above the domain's energy floor
        p = np.sqrt(2.0 * params.m * (H + U))
        y = PhasePoint(np.array([r, 0.0]), p * np.array([-0.6, 0.8]))
        assert chart.in_U_eps(params, y)
        cy = chart.chart_forward(params, y)
        beyond = chart.ChartPoint(T=-10.0 * time_scale(params), H=cy.H, B=cy.B, A=cy.A)
        with pytest.raises(chart.ChartDomainError):
            chart.chart_inverse(params, beyond)
        # a time or energy that is not finite
        for T, H in ((np.inf, c.H), (-np.inf, c.H), (np.nan, c.H), (c.T, np.nan)):
            with pytest.raises(chart.ChartDomainError):
                chart.chart_inverse(params, chart.ChartPoint(T=T, H=H, B=c.B, A=c.A))

    def test_stencil_near_collision_orbit_regression(self):
        # certify point of seed 3 (n = d = 2, sin angle(q, p) = 4.45e-5):
        # the ODE chart missed the bracket gate by 23.8x here
        params = ModelParams(n=2, d=2, eps=0.1)
        x = PhasePoint(
            np.array([-0.022630761868712785, -0.013849813959205665]),
            np.array([-7.423280146597083, -4.543431400706268]),
        )
        rep = verify.bracket_table(params, x)
        assert rep.max_residual <= 1e-3 * 1e-5
        assert rep.ab_sign == -1.0 and rep.bb_sign == -1.0

    def test_near_parabolic_regression(self):
        # n = 3, r = 0.775 eps, |H| = 1e-4 .. 1e-3 U(q), pericenters down to
        # 0.01 eps: the ODE chart missed the bracket gate by up to 7.7x and
        # the roundtrip gate by up to 1.06x on this grid
        params = ModelParams(n=3, d=2, eps=0.1)
        r = 0.775 * params.eps
        U = params.Z * r**-params.alpha
        for frac in (-1e-3, -3e-4, -1e-4, 1e-4, 3e-4, 1e-3):
            E = frac * U
            p_mag = np.sqrt(2.0 * params.m * (E + U))
            for rp in (0.01, 0.03, 0.1, 0.3):
                rp *= params.eps
                l2 = 2.0 * params.m * (E * rp * rp + params.Z * rp ** (2.0 / params.n))
                ang = np.pi - np.arcsin(np.sqrt(l2) / (r * p_mag))  # inbound
                p = p_mag * np.array([np.cos(ang), np.sin(ang)])
                x = PhasePoint(np.array([r, 0.0]), p)
                rep = verify.bracket_table(params, x)
                assert rep.max_residual <= 1e-2 * 1e-5
                back = chart.chart_inverse(params, chart.chart_forward(params, x))
                assert np.max(np.abs(back.x.q - x.q)) <= 1e-3 * 1e-8
                assert np.max(np.abs(back.x.p - x.p)) <= 1e-3 * 1e-8


def radial_time_quadrature(params, H, r):
    """Independent oracle: time from the collision out to r along a
    collision orbit, int_0^r dr / sqrt(2/m (H + Z r**-alpha))."""

    def integrand(s):
        return 1.0 / np.sqrt(2.0 / params.m * (H + params.Z * s**-params.alpha))

    val, _ = quad(integrand, 0.0, r, epsabs=0.0, epsrel=1e-13, limit=200)
    return val


class TestCollisionOrbitInverse:
    """chart_inverse on B = 0 takes the same radial quadrature as every other
    orbit; only (T, B) = (0, 0) is the glued collision point."""

    @staticmethod
    def cases(params, rng):
        for H in (-0.3, 0.0, 2.0):
            A = rng.normal(size=params.d)
            A /= np.linalg.norm(A)
            t_exit = radial_time_quadrature(params, H, params.eps)
            for frac in (1e-3, 0.1, 0.5, 0.95):
                for sign in (-1.0, 1.0):
                    yield chart.ChartPoint(
                        T=sign * frac * t_exit, H=H, B=np.zeros(params.d), A=A
                    )

    @pytest.mark.parametrize("n,d", GRID)
    def test_time_matches_radial_quadrature(self, n, d):
        params = ModelParams(n=n, d=d, eps=0.1)
        tau = time_scale(params)
        for c in self.cases(params, np.random.default_rng(300 + 10 * n + d)):
            back = chart.chart_inverse(params, c)
            assert isinstance(back, chart.Regular)
            q, p = back.x.q, back.x.p
            r = np.linalg.norm(q)
            assert abs(radial_time_quadrature(params, c.H, r) - abs(c.T)) <= 1e-12 * tau
            # on the line of A, moving outward iff T > 0, at energy H
            assert np.linalg.norm(q - np.dot(q, c.A) * c.A) <= 1e-14 * r
            assert np.linalg.norm(p - np.dot(p, c.A) * c.A) <= 1e-14 * np.linalg.norm(p)
            assert np.sign(back.x.radial) == np.sign(c.T)
            assert hamiltonian(params, back.x) == pytest.approx(c.H, abs=1e-10)

    @pytest.mark.parametrize("n,d", GRID)
    def test_matches_global_flow_from_collision(self, n, d):
        # the collision orbit flowed from the glued point: bound ones on
        # `_BoundOrbit` in phi, the others on the same quadrature in u
        params = ModelParams(n=n, d=d, eps=0.1)
        for c in self.cases(params, np.random.default_rng(400 + 10 * n + d)):
            back = chart.chart_inverse(params, c).x
            flowed = chart.global_flow(params, chart.Collision(h=c.H, a=c.A), c.T).x
            assert np.linalg.norm(back.q - flowed.q) <= 1e-9 * back.r
            assert np.linalg.norm(back.p - flowed.p) <= 1e-9 * np.linalg.norm(back.p)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_tiny_times_leave_the_collision_as_its_leading_term(self, n):
        # r**(1 + alpha/2) = (1 + alpha/2) sqrt(2Z/m) |T| to relative order
        # H r**alpha / Z, for chart_inverse and the flow from the glued
        # point: 1.4e-15 measured.  chart_inverse's own solve stopped after
        # 64 rounds far above the root (r 1e175 times too large at T =
        # 1e-300, n = 2), and the first round's chord g |t| / T(g)
        # underflowed to 0, so the flow ended on the collision
        params = ModelParams(n=n, d=2, eps=0.1, m=0.7, Z=1.3)
        a = np.array([0.6, 0.8])
        with mp.workdps(40):
            power = 1 + (2 - mp.mpf(2) / n) / 2
            for T in (1e-300, -1e-200, 1e-100, 1e-30):
                want = (power * mp.mpf(abs(T)) * mp.sqrt(2 * mp.mpf(params.Z) / params.m)) ** (1 / power)
                for H in (2.0, -0.5):
                    back = chart.chart_inverse(params, chart.ChartPoint(T=T, H=H, B=np.zeros(2), A=a))
                    flowed = chart.global_flow(params, chart.Collision(h=H, a=a), T)
                    for y in (back.x, flowed.x):
                        assert abs(y.r / want - 1) <= 1e-14 and np.sign(y.radial) == np.sign(T)

    def test_pericenter_below_the_float_range_is_the_collision(self):
        # T = 0 and |B| = l with a pericenter that underflows to r = 0: the
        # glued point, as `global_flow` ends there (p = l / r divided by 0)
        for n in (2, 3):
            params = ModelParams(n=n, d=2, eps=0.1)
            for l in (5e-324, 1e-200, 1e-170):
                c = chart.ChartPoint(T=0.0, H=1.0, B=np.array([0.0, l]), A=np.array([1.0, 0.0]))
                back = chart.chart_inverse(params, c)
                assert isinstance(back, chart.Collision) and back.h == 1.0 and same_bits(back.a, c.A)

    def test_time_beyond_the_domain_is_rejected(self):
        # flowing the glued point by T = 0.05 would reach r = 0.285 > eps
        params = ModelParams(n=3, d=2, eps=0.1)
        c = chart.ChartPoint(T=0.05, H=1.0, B=np.zeros(2), A=np.array([1.0, 0.0]))
        with pytest.raises(chart.ChartDomainError):
            chart.chart_inverse(params, c)

    def test_n1_energy_below_the_domain_floor_is_rejected(self):
        # for n = 1 the floor H > -Z/2 of U^eps does not depend on r
        params = ModelParams(n=1, d=2, eps=0.1)
        for H in (-0.5, -2.0):
            for B in (np.zeros(2), np.array([0.0, 1e-3])):
                c = chart.ChartPoint(T=1e-3, H=H, B=B, A=np.array([1.0, 0.0]))
                with pytest.raises(chart.ChartDomainError):
                    chart.chart_inverse(params, c)


class TestPericenter:
    def test_time_sign_convention(self):
        params = ModelParams(n=2, d=2, eps=0.1)
        inbound = PhasePoint(np.array([0.05, 0.0]), np.array([-6.0, 2.0]))
        outbound = PhasePoint(np.array([0.05, 0.0]), np.array([6.0, 2.0]))
        assert chart.pericenter(params, inbound).T < 0.0  # pericenter ahead
        assert chart.pericenter(params, outbound).T > 0.0  # pericenter behind

    def test_pericenter_radius_matches_r_min(self):
        params = ModelParams(n=3, d=2, eps=0.1)
        x = PhasePoint(np.array([0.05, 0.01]), np.array([-8.0, 6.0]))
        res = chart.pericenter(params, x)
        rp = abs(res.Q0) ** params.n
        expected = chart.r_min(params, hamiltonian(params, x), l_squared_point(x))
        assert rp == pytest.approx(expected, rel=1e-9)

    def test_on_surface_iff_t_vanishes(self):
        params = ModelParams(n=2, d=2, eps=0.1)
        x = PhasePoint(np.array([0.05, 0.0]), np.array([0.0, 7.0]))
        c = chart.chart_forward(params, x)
        assert chart.on_S_eps(params, x)
        assert abs(c.T) < 1e-12


class TestChartRoundtrip:
    @pytest.mark.parametrize("n,d", [(1, 2), (2, 2), (2, 3), (3, 2), (4, 3)])
    def test_regular_roundtrip(self, n, d):
        params = ModelParams(n=n, d=d, eps=0.1)
        rng = np.random.default_rng(10 * n + d)
        for x in sample_domain_points(params, rng, 5):
            c = chart.chart_forward(params, x)
            back = chart.chart_inverse(params, c)
            assert isinstance(back, chart.Regular)
            assert np.allclose(back.x.q, x.q, atol=1e-8)
            assert np.allclose(back.x.p, x.p, atol=1e-8)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_nearly_radial_roundtrip(self, n):
        # p leans off the line of q by 1e-12 to 4e-9: a collinearity
        # threshold gave these states the completion frame, dropped their l
        # and missed by |p| s, up to 2.3e-6
        params = ModelParams(n=n, d=3, eps=0.1)
        for s in np.geomspace(1e-12, 4e-9, 12):
            x = PhasePoint(np.array([0.03, 0.0, 0.0]), np.array([-40.0, 40.0 * s, 12.0 * s]))
            back = chart.chart_inverse(params, chart.chart_forward(params, x))
            assert np.max(np.abs(back.x.q - x.q)) <= 1e-8
            assert np.max(np.abs(back.x.p - x.p)) <= 1e-8

    @given(
        n=st.sampled_from([1, 2, 3, 4]),
        d=st.sampled_from([3, 4]),
        log_sin=st.floats(-14.0, -6.0),
        r=st.floats(0.005, 0.095),
        speed=st.floats(1.05, 4.0),
        sign=st.sampled_from([-1.0, 1.0]),
        seed=st.integers(0, 2**16),
    )
    @settings(derandomize=True, max_examples=150, deadline=None)
    def test_nearly_radial_roundtrip_property(self, n, d, log_sin, r, speed, sign, seed):
        # sin of the angle between q and p log-uniform in [1e-14, 1e-6]
        params = ModelParams(n=n, d=d, eps=0.1)
        rng = np.random.default_rng(seed)
        u = rng.normal(size=d)
        u /= np.linalg.norm(u)
        w = rng.normal(size=d)
        w -= np.dot(w, u) * u
        w /= np.linalg.norm(w)
        sin = 10.0**log_sin
        # above the domain's energy floor -Z / (2 n r**alpha)
        p_mag = np.sqrt(speed * 2.0 * (1.0 - 0.5 / n) * r ** -params.alpha)
        x = PhasePoint(r * u, p_mag * (sign * np.sqrt(1.0 - sin * sin) * u + sin * w))
        back = chart.chart_inverse(params, chart.chart_forward(params, x))
        assert isinstance(back, chart.Regular)
        assert np.max(np.abs(back.x.q - x.q)) <= 1e-8
        assert np.max(np.abs(back.x.p - x.p)) <= 1e-8

    @pytest.mark.parametrize("n", [2, 4])
    @pytest.mark.parametrize("r", [1e-150, 1e-100, 1e-30])
    def test_roundtrip_far_below_u_max(self, n, r):
        # |p|**2 at 1.5 times the domain's floor, so u lies far below the
        # chart's u_max: Newton stopping on 4 ulp of u_max left q off by 15 %
        # (n = 2) and 63 % (n = 4) at r = 1e-150; 4 ulp of u itself, 1.6e-15
        params = ModelParams(n=n, d=2, eps=0.1)
        floor = 2.0 * params.m * params.Z * r**-params.alpha * (1.0 - 0.5 / n)
        x = PhasePoint(np.array([r, 0.0]), np.sqrt(1.5 * floor) * np.array([0.6, 0.8]))
        back = chart.chart_inverse(params, chart.chart_forward(params, x)).x
        assert np.linalg.norm(back.q - x.q) <= 4e-15 * r
        assert np.linalg.norm(back.p - x.p) <= 4e-15 * np.linalg.norm(x.p)

    def test_chart_point_structure(self):
        params = ModelParams(n=2, d=3, eps=0.1)
        x = PhasePoint(np.array([0.04, 0.02, 0.0]), np.array([-5.0, 3.0, 1.0]))
        c = chart.chart_forward(params, x)
        assert np.linalg.norm(c.A) == pytest.approx(1.0, abs=1e-10)
        assert abs(np.dot(c.A, c.B)) < 1e-10  # B = LA is orthogonal to A
        assert c.H == pytest.approx(hamiltonian(params, x))

    def test_kepler_lrl_direction_is_classical(self):
        # for n = 2 the chart axis equals the classical pericenter direction
        params = ModelParams(n=2, d=2, eps=0.1)
        x = PhasePoint(np.array([0.05, 0.01]), np.array([-6.0, 2.0]))
        c = chart.chart_forward(params, x)
        q, p = x.q, x.p
        lrl = (
            q * np.dot(p, p)
            - p * np.dot(q, p)
            - params.m * params.Z * q / np.linalg.norm(q)
        )
        lrl /= np.linalg.norm(lrl)
        assert np.allclose(c.A, lrl, atol=1e-8)

    def test_collision_roundtrip(self):
        params = ModelParams(n=3, d=2, eps=0.1)
        x = PhasePoint(np.array([0.05, 0.0]), np.array([-10.0, 0.0]))
        c = chart.chart_forward(params, x)
        assert np.allclose(c.B, 0.0, atol=1e-12)  # collision course: L = 0
        back = chart.chart_inverse(params, c)
        assert isinstance(back, chart.Regular)
        assert np.allclose(back.x.q, x.q, atol=1e-8)
        assert np.allclose(back.x.p, x.p, atol=1e-8)

    def test_glued_point_at_t_zero(self):
        params = ModelParams(n=2, d=2, eps=0.1)
        x = PhasePoint(np.array([0.05, 0.0]), np.array([-6.0, 0.0]))
        c = chart.chart_forward(params, x)
        glued = chart.ChartPoint(T=0.0, H=c.H, B=c.B, A=c.A)
        back = chart.chart_inverse(params, glued)
        assert isinstance(back, chart.Collision)
        assert back.h == pytest.approx(c.H)
        assert np.linalg.norm(back.a) == pytest.approx(1.0)

    @pytest.mark.parametrize("T", [1e154, 1e200, -1e200, 1e300, 1e308])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_n1_time_beyond_the_float_range_is_outside(self, T):
        # sigma = s0 + u**2 overflows at the step's end: the rate read
        # E sigma P = inf * 0, and the search that followed divided by n - 1
        # (ZeroDivisionError) or overflowed its tangent (RuntimeWarning).
        # Then `_fused` read G0 + E sigma P as NaN there, and the solve
        # bisected through its 64 rounds (51 passes at 1e154, 64 from 1e200);
        # with G = G0 there and the guess no longer held at sqrt(max float) the root
        # takes one pass, and the NaN guess at 1e308 (its u is beyond the
        # floats) two, the solve stopping at once
        params = ModelParams(n=1, d=2)
        with chart.counting() as work, pytest.raises(chart.ChartDomainError, match="outside the image"):
            chart.chart_inverse(params, chart.ChartPoint(T=T, H=1.0, B=np.array([0.0, 0.05]), A=np.array([1.0, 0.0])))
        assert len(work.passes) == (2 if T == 1e308 else 1)

    def test_inverse_rejects_point_outside_domain(self):
        params = ModelParams(n=2, d=2, eps=0.1)
        # r_min(H=-0.5, l2=1) = 1 >> eps: the reconstructed pericenter is
        # outside the chart domain
        bad = chart.ChartPoint(
            T=0.01, H=-0.5, B=np.array([0.0, 1.0]), A=np.array([1.0, 0.0])
        )
        with pytest.raises(chart.ChartDomainError):
            chart.chart_inverse(params, bad)


class TestChartConstancy:
    def test_invariants_constant_along_flow(self):
        params = ModelParams(n=3, d=2, eps=0.1)
        x = PhasePoint(np.array([0.04, 0.01]), np.array([-11.0, 5.0]))
        c0 = chart.chart_forward(params, x)
        t = -0.4 * c0.T  # toward pericenter, safely inside the domain
        moved = chart.global_flow(params, x, t)
        c1 = chart.chart_forward(params, moved.x)
        assert c1.T == pytest.approx(c0.T + t, abs=1e-9)
        assert c1.H == pytest.approx(c0.H, abs=1e-9)
        assert np.allclose(c1.A, c0.A, atol=1e-9)
        assert np.allclose(c1.B, c0.B, atol=1e-9)


class TestGlobalFlow:
    def test_identity_at_zero_time(self):
        params = ModelParams(n=2, d=2, eps=0.1)
        x = PhasePoint(np.array([0.05, 0.0]), np.array([-6.0, 0.0]))
        res = chart.global_flow(params, x, 0.0)
        assert isinstance(res, chart.Regular)
        assert np.array_equal(res.x.q, x.q)

    def test_radial_bounce_conserves_energy(self):
        params = ModelParams(n=2, d=2, eps=0.1)
        x = PhasePoint(np.array([0.05, 0.0]), np.array([-6.0, 0.0]))
        res = chart.global_flow(params, x, 0.05)
        assert isinstance(res, chart.Regular)
        assert res.x.r == pytest.approx(x.r, abs=1e-6) or res.x.r > x.r
        assert hamiltonian(params, res.x) == pytest.approx(
            hamiltonian(params, x), abs=1e-8
        )

    def test_flow_is_reversible_through_collision(self):
        params = ModelParams(n=3, d=2, eps=0.1)
        x = PhasePoint(np.array([0.05, 0.0]), np.array([-6.0, 0.0]))
        fwd = chart.global_flow(params, x, 0.03)
        back = chart.global_flow(params, fwd, -0.03)
        assert isinstance(back, chart.Regular)
        assert np.allclose(back.x.q, x.q, atol=1e-7)
        assert np.allclose(back.x.p, x.p, atol=1e-5)

    def test_launch_from_collision_point(self):
        for n, h in [(1, -0.5), (1, 0.5), (2, -1.0), (3, -1.0)]:
            params = ModelParams(n=n, d=2, eps=0.1)
            a = np.array([0.0, 1.0])
            out = chart.global_flow(params, chart.Collision(h=h, a=a), 0.01)
            assert isinstance(out, chart.Regular)
            # the orbit leaves along the continuation ray -a
            u = out.x.q / out.x.r
            assert np.dot(u, -a) > 0.999
            # the state is rebuilt on its orbit from h, so its energy is
            # exact up to the rounding of H itself
            assert hamiltonian(params, out.x) == pytest.approx(h, abs=1e-12)

    def test_projection_continuous_through_collision(self):
        params = ModelParams(n=2, d=2, eps=0.1)
        x = PhasePoint(np.array([0.05, 0.0]), np.array([-6.0, 0.0]))
        c = chart.chart_forward(params, x)
        t_coll = -c.T
        prev = None
        for t in np.linspace(t_coll - 1e-3, t_coll + 1e-3, 21):
            state = chart.global_flow(params, x, float(t))
            qt = chart.project_to_config(state)
            if prev is not None:
                assert np.linalg.norm(qt - prev) < 5e-3
            prev = qt

    def test_projection_of_collision_is_origin(self):
        assert np.array_equal(
            chart.project_to_config(chart.Collision(h=1.0, a=np.array([1.0, 0.0]))),
            np.zeros(2),
        )
        x = PhasePoint(np.array([1.0, 2.0]), np.array([0.0, 0.1]))
        assert np.array_equal(chart.project_to_config(chart.Regular(x)), x.q)


def apsidal_quadrature(params, E, l):
    """Independent oracle: apsidal angle and radial period of a bound orbit.

    Both turning points come from brentq on E r**2 + Z r**(2/n) = l**2/2m,
    and r = r_lo + (r_hi - r_lo) sin(s)**2 removes the inverse-square-root
    endpoints of l / (r**2 p_r) and m / p_r before `quad`.
    """
    m, Z = params.m, params.Z
    rhs = l * l / (2.0 * m)

    def h(r):
        return E * r * r + Z * r ** (2.0 / params.n) - rhs

    r_peak = (Z / (params.n * -E)) ** (params.n / (2.0 * (params.n - 1.0)))
    r_lo = brentq(h, 1e-300, r_peak, xtol=1e-15)
    r_hi_b = 2.0 * r_peak
    while h(r_hi_b) > 0.0:
        r_hi_b *= 2.0
    r_hi = brentq(h, r_peak, r_hi_b, xtol=1e-15)
    dr = r_hi - r_lo

    def integrand(s, angle):
        r = r_lo + dr * np.sin(s) ** 2
        pr2 = 2.0 * m * (E + Z * r ** (-params.alpha)) - l * l / (r * r)
        if pr2 <= 0.0:
            return 0.0
        jac = 2.0 * dr * np.sin(s) * np.cos(s)
        return (l / (r * r) if angle else m) / np.sqrt(pr2) * jac

    tol = dict(epsabs=0.0, epsrel=1e-12, limit=200)
    apsis, _ = quad(integrand, 0.0, np.pi / 2.0, args=(True,), **tol)
    half, _ = quad(integrand, 0.0, np.pi / 2.0, args=(False,), **tol)
    return apsis, 2.0 * half


def circular_l(params, E):
    """Angular momentum of the circular orbit of energy E < 0."""
    s_peak = (params.Z / (params.n * -E)) ** (1.0 / (params.n - 1.0))
    return np.sqrt(2.0 * params.m * (E * s_peak**params.n + params.Z * s_peak))


def kepler_positions(params, E, l, ts):
    """Independent oracle: n = 2 positions from Kepler's equation, pericenter
    on the positive q_1 axis at t = 0 and counterclockwise motion."""
    m, Z = params.m, params.Z
    a = Z / (2.0 * -E)
    e = np.sqrt(1.0 + 2.0 * E * l * l / (m * Z * Z))
    M = np.mod(np.sqrt(Z / (m * a**3)) * ts, 2.0 * np.pi)
    psi = np.full_like(M, np.pi)  # Newton from pi converges for every M and e < 1
    for _ in range(60):
        psi = psi - (psi - e * np.sin(psi) - M) / (1.0 - e * np.cos(psi))
    return a * (np.cos(psi) - e), a * np.sqrt(1.0 - e * e) * np.sin(psi)


class TestBoundOrbit:
    """`_BoundOrbit`: radial period, apsidal angle and samples of a bound
    orbit from the radial integrals between its turning points."""

    @pytest.mark.parametrize("m,Z,E,l", [(1.0, 1.0, -0.5, 0.5), (1.3, 0.8, -0.2, 0.05),
                                         (0.7, 2.0, -3.0, 0.4), (1.0, 1.0, -0.5, 1e-6)])
    def test_kepler_period_and_apsis(self, m, Z, E, l):
        params = ModelParams(n=2, d=2, m=m, Z=Z)
        orbit = chart._BoundOrbit(params, E, l)
        a = Z / (2.0 * -E)
        assert orbit.period == pytest.approx(2.0 * np.pi * np.sqrt(m * a**3 / Z), rel=2e-15)
        assert orbit.apsis == np.pi

    @pytest.mark.parametrize("l", [0.9, 0.5, 0.2, 0.02])
    def test_kepler_samples_match_keplers_equation(self, l):
        params = ModelParams(n=2, d=2)
        ts = np.linspace(0.0, 60.0, 2000)
        r, _, theta, _, _, sol = chart._sample(chart._BoundOrbit(params, -0.5, l), ts)
        x, y = kepler_positions(params, -0.5, l, ts)
        a = 1.0
        assert np.max(np.hypot(r * np.cos(theta) - x, r * np.sin(theta) - y)) <= 1e-12 * a
        assert sol.iterations <= 8
        assert sol.residual() <= 1e-14

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    @pytest.mark.parametrize("l", [0.9, 0.6, 0.35, 0.2])
    def test_against_quadrature_of_the_orbit_equation(self, n, l):
        params = ModelParams(n=n, d=2)
        orbit = chart._BoundOrbit(params, -0.5, l)
        apsis, period = apsidal_quadrature(params, -0.5, l)
        assert orbit.apsis == pytest.approx(apsis, rel=1e-10)
        assert orbit.period == pytest.approx(period, rel=1e-10)

    @pytest.mark.parametrize("n", [3, 4])
    def test_apsis_limits(self, n):
        params = ModelParams(n=n, d=2)
        l_c = circular_l(params, -0.5)
        # collision-orbit limit: n quarter turns
        for l in (1e-4, 1e-7):
            assert chart._BoundOrbit(params, -0.5, l).apsis == pytest.approx(
                n * np.pi / 2.0, abs=10.0 * l
            )
        # circular limit: pi / sqrt(2 - alpha) = pi sqrt(n / 2)
        near = chart._BoundOrbit(params, -0.5, (1.0 - 1e-6) * l_c)
        assert near.apsis / np.pi == pytest.approx(np.sqrt(n / 2.0), rel=1e-6)

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_circular_threshold(self, n):
        params = ModelParams(n=n, d=2)
        l_c = circular_l(params, -0.5)
        with pytest.raises(chart.NoPericenterError):
            chart._BoundOrbit(params, -0.5, 1.001 * l_c)
        for l in (l_c, np.nextafter(l_c, 0.0)):
            try:
                orbit = chart._BoundOrbit(params, -0.5, l)
            except chart.NoPericenterError:
                continue
            r, _, theta, _, _, _ = chart._sample(orbit, np.linspace(0.0, 10.0, 50))
            assert np.all(np.isfinite(r)) and np.all(np.isfinite(theta))
            assert orbit.apsis / np.pi == pytest.approx(np.sqrt(n / 2.0), rel=1e-6)

    @given(
        n=st.sampled_from([2, 3, 4, 6]),
        E=st.floats(-3.0, -0.05),
        frac=st.floats(0.01, 0.95),
        lam=st.floats(0.1, 10.0),
    )
    @settings(derandomize=True, max_examples=40, deadline=None)
    def test_homogeneity(self, n, E, frac, lam):
        # q -> lam q, p -> lam**(-alpha/2) p: E -> lam**-alpha E, l -> lam**(1 - alpha/2) l
        params = ModelParams(n=n, d=2)
        alpha = params.alpha
        l = frac * circular_l(params, E)
        base = chart._BoundOrbit(params, E, l)
        scaled = chart._BoundOrbit(params, lam**-alpha * E, lam ** (1.0 - alpha / 2.0) * l)
        assert scaled.period == pytest.approx(lam ** (1.0 + alpha / 2.0) * base.period, rel=1e-13)
        assert scaled.apsis == pytest.approx(base.apsis, rel=1e-13)

    def test_samples_at_the_apsides(self):
        params = ModelParams(n=3, d=2)
        orbit = chart._BoundOrbit(params, -0.5, 0.3)
        P = orbit.period
        r, _, theta, _, _, _ = chart._sample(orbit, np.array([0.0, 0.5 * P, 3.0 * P, 3.5 * P]))
        r_peri, r_apo = orbit.s0**1.5, orbit.s1**1.5
        assert r[0] == r_peri and theta[0] == 0.0
        assert r == pytest.approx([r_peri, r_apo, r_peri, r_apo], rel=1e-14)
        # 3P carries an ulp of rounding, which the fast pericenter passage
        # turns into about 1e-13 of angle
        assert theta == pytest.approx(orbit.apsis * np.array([0.0, 1.0, 6.0, 7.0]), rel=1e-12)

    @pytest.mark.parametrize("n,l", [(2, 0.5), (3, 0.35)])
    @pytest.mark.parametrize("count", [1, 511, 512, 513, 2000])
    def test_chunked_sample_is_the_one_pass_sample(self, monkeypatch, count, n, l):
        orbit = chart._BoundOrbit(ModelParams(n=n, d=2), -0.5, l)
        # many periods on both sides of the pericenter
        ts = np.random.default_rng(count).uniform(-40.0, 60.0, count) * orbit.period
        k, side, one = orbit.place(ts)
        theta = 2.0 * k * orbit.apsis + side * one.carried  # the angle from the solve's last round
        r = orbit.sigma(one.x) ** (n / 2.0)
        place, passes = orbit.place, []
        monkeypatch.setattr(orbit, "place", lambda part, start: passes.append(len(part)) or place(part, start))
        r_got, _, theta_got, _, _, sol = chart._sample(orbit, ts)
        assert passes == [min(chart._SAMPLE_CHUNK, count - i) for i in range(0, count, chart._SAMPLE_CHUNK)]
        assert same_bits(r_got, r) and same_bits(theta_got, theta)
        assert same_bits(sol.x, one.x) and same_bits(sol.t, one.t)
        assert sol.iterations == one.iterations and sol.residual() == one.residual()

    @pytest.mark.parametrize("E", [0.0, 0.5])
    def test_unbound_energy_rejected(self, E):
        with pytest.raises(ValueError):
            chart._BoundOrbit(ModelParams(n=3, d=2), E, 0.3)


class TestZeroEnergyOrbit:
    """`_ZeroEnergyOrbit`: the E = 0 closed forms."""

    @pytest.mark.parametrize("m,Z,l", [(1.0, 1.0, np.sqrt(2.0)), (1.3, 0.8, 0.3)])
    def test_kepler_matches_barkers_equation(self, m, Z, l):
        # parabola r = q / cos(nu/2)**2 with q = l**2/2mZ, and Barker's
        # t = sqrt(2 m q**3 / Z) (D + D**3/3), D = tan(nu/2)
        params = ModelParams(n=2, d=2, m=m, Z=Z)
        q = l * l / (2.0 * m * Z)
        nu = np.linspace(-3.0, 3.0, 101)
        D = np.tan(nu / 2.0)
        r, _, theta, _, _, sol = chart._sample(
            chart._ZeroEnergyOrbit(params, l), np.sqrt(2.0 * m * q**3 / Z) * (D + D**3 / 3.0)
        )
        assert r == pytest.approx(q * (1.0 + D * D), rel=1e-13)
        assert theta == pytest.approx(nu, abs=1e-13)
        assert sol.iterations <= 8

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_samples_reach_the_requested_radius(self, n):
        params = ModelParams(n=n, d=2)
        orbit = chart._ZeroEnergyOrbit(params, 0.7)
        radii = np.array([orbit.s0 ** (n / 2.0), 1.0, 5.0, 20.0])
        t = np.array([orbit.time(orbit.u_at(rho)) for rho in radii])
        r, _, theta, _, _, sol = chart._sample(orbit, np.concatenate((-t, t)))
        assert r == pytest.approx(np.concatenate((radii, radii)), rel=1e-13)
        assert np.array_equal(theta[:4], -theta[4:])  # the branches mirror
        assert np.all(np.abs(theta) < orbit.apsis)
        assert sol.residual() <= 1e-13 * t[-1]

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_closed_forms_check_the_radial_orbit(self, n):
        # at E = 0, G = Z: T's integrand is a polynomial of degree 2n - 2,
        # which the 32-node rule integrates exactly, and the sweep's
        # remainder vanishes, leaving n atan2(u, sqrt(s0))
        params = ModelParams(n=n, d=2)
        u = np.geomspace(1e-6, 1e3, 400)
        for l in (1e-3, 0.3, np.sqrt(2.0), 5.0):
            closed = chart._ZeroEnergyOrbit(params, l)
            orbit = chart._RadialOrbit(params, np.zeros(u.size), np.full(u.size, l))
            T, theta = orbit._fused(u)[::2]
            assert np.max(np.abs(T / closed.time(u) - 1.0)) <= 1e-14
            exact = n * np.arctan2(u, np.sqrt(l * l / (2.0 * params.m * params.Z)))
            assert np.max(np.abs(theta - exact) / np.spacing(exact)) <= 4.0

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_step_through_the_orbit_interface(self, n):
        # `_step` on the E = 0 `_RadialOrbit` against `_sample` of the closed
        # forms at the start's closed-form time and angle since the pericenter
        params = ModelParams(n=n, d=2)
        closed = chart._ZeroEnergyOrbit(params, 0.3)
        orbit = chart._RadialOrbit(params, np.zeros(1), np.array([0.3]))
        for u0, side0 in ((0.0, 1.0), (0.4, 1.0), (2.0, -1.0), (None, 1.0)):
            sigma = 0.0 if u0 is None else closed.s0 + u0 * u0
            radial = None if u0 is None else side0 * closed.root2mZ * u0
            tau0, theta0 = (0.0, 0.0) if u0 is None else (side0 * closed.time(u0), side0 * closed.angle(u0))
            for t in (1e-3, -0.2, 5.0, -40.0):
                got, want = chart._step(orbit, sigma, radial, t), chart._sample(closed, [tau0 + t], theta0)
                assert got.r == pytest.approx(want.r[0], rel=1e-13)
                assert got.p_r == pytest.approx(want.p_r[0], rel=1e-13)
                assert got.swept == pytest.approx(want.swept[0], rel=1e-13, abs=1e-15)
                assert got.pericenter == pytest.approx(want.pericenter[0], rel=1e-13, abs=1e-15)
                assert got.periods == want.periods[0] == 0.0


def stencil_rows(params, x):
    """The 6 * 2d + 1 points at which `bracket_table` evaluates the chart."""
    z = np.concatenate([x.q, x.p])
    h = verify.DEFAULT_STEP_FRACTION * verify._coordinate_scales(z, params.d)
    seen = []

    def record(rows):
        seen.append(rows.copy())
        return np.zeros((len(rows), 1))

    verify._gradient(record, z, h)
    (rows,) = seen
    return rows


def radial_oracle(params, E, l, s0, us):
    """T, dT/du, the swept angle and its rate at each u of us, a (4, j)
    array, on the radial orbit (E, l) with pericenter s0: the integrals
    from 0 to u of K sigma**(n-1) / sqrt(G) and n l/sqrt(2m) / (sigma
    sqrt(G)), sigma = s0 + v**2, with G = Z + E sum_j sigma**(n-1-j) s0**j
    from its definition, by mpmath's Gauss-Legendre rule at 18 digits.  It
    runs in log v from e**-4 below the scales sqrt(s0) and
    (Z/E)**(1/(2n-2)), in unit steps within 4 of them and steps of about 24
    elsewhere, each piece taken against the integrand at its right end, as
    mpmath's tolerance is absolute."""
    n, m, Z = params.n, params.m, params.Z
    with mp.workdps(18):
        E, l, s0 = (mp.mpf(float(v)) for v in (E, l, s0))
        K, c = n * m / mp.sqrt(2 * m), n * l / mp.sqrt(2 * m)

        def rates(v):
            sigma = s0 + v * v
            rG = mp.sqrt(Z + E * sum(sigma ** (n - 1 - j) * s0**j for j in range(n)))
            return K * sigma ** (n - 1) / rG, c / (sigma * rG)

        def piece(f, a, b):  # both integrals of f on [a, b] as one complex one
            T, A = f(b)
            w = mp.quad(lambda x: (lambda t, a: t / T + 1j * (a / A if A else 0))(*f(x)), [a, b], method="gauss-legendre")
            return mp.matrix([T * w.real, A * w.imag])

        scales = [x for x in (mp.sqrt(s0), (Z / E) ** (mp.mpf(1) / (2 * n - 2)) if E > 0 else 0) if x > 0]
        logs = [mp.log(u) for u in us]
        lo = min(scales + [mp.mpf(1)]) * mp.exp(-4)
        grid = mp.linspace(mp.log(lo), max(logs), int((max(logs) - mp.log(lo)) / 24) + 2)
        points = sorted({*logs, *grid, *(mp.log(x) + j for x in scales for j in range(-4, 5))})
        points = [p for p in points if p >= mp.log(lo)]
        total, at = piece(rates, 0, lo), {}
        for a, b in zip(points, points[1:]):
            total += piece(lambda s: [x * mp.exp(s) for x in rates(mp.exp(s))], a, b)
            at[b] = total
        ints = [at[x] if x in at else piece(rates, 0, mp.exp(x)) for x in logs]
        ends = [rates(mp.mpf(float(u))) for u in us]
        angle = [n * mp.pi / 2 if l == 0 else v[1] for v in ints]  # a collision orbit's sweep
        return np.array([[float(v[0]) for v in ints], [float(v[0]) for v in ends],
                         [float(v) for v in angle], [float(v[1]) for v in ends]])


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def loop_panel_sum(scale, vals):
    """`chart._panel_sum` as a loop over the panels: the reference for its
    running sum."""
    parts = row_dot(vals.reshape(scale.shape + (chart.CHART_NODES,)), chart._WEIGHTS)
    total = scale[:, 0] * parts[:, 0]
    for p in range(1, scale.shape[1]):
        total = total + scale[:, p] * parts[:, p]
    return total


@pytest.mark.parametrize("E", [0.5, 146.0])
def test_panel_sum_is_the_loop_over_panels(E):
    # many rows far out on orbits with E > 0, where T takes up to ~1000
    # panels, some rows ending in panels of width 0
    params = ModelParams(n=3, d=2)
    u = 10.0 ** np.random.default_rng(3).uniform(-2.0, 150.0, 64)
    orbit = chart._RadialOrbit(params, np.full(64, E), np.full(64, 0.3))
    sigma, width = orbit._nodes(u)
    vals = 1.0 / np.sqrt(sigma[:, :-1])  # the last column is u itself, not a node
    assert width.shape[1] > 100 and (width[:, -1] == 0.0).any()
    assert same_bits(chart._panel_sum(orbit.K * width, vals), loop_panel_sum(orbit.K * width, vals))


class TestChartRows:
    @pytest.mark.parametrize("n,d", GRID)
    def test_each_row_equals_the_row_alone(self, n, d):
        params = ModelParams(n=n, d=d, eps=0.1)
        x = sample_domain_points(params, np.random.default_rng(50 + 10 * n + d), 1)[0]
        rows = stencil_rows(params, x)
        assert rows.shape == (6 * 2 * d + 1, 2 * d)
        batch = chart.chart_forward_rows(params, rows)
        shuffled = chart.chart_forward_rows(params, rows[::-1])
        for i, z in enumerate(rows):
            alone = chart.chart_forward_rows(params, z[None])
            point = chart.chart_forward(params, PhasePoint(z[:d], z[d:]))
            for field in ("T", "H", "A", "B"):
                value = getattr(batch, field)[i]
                assert same_bits(value, getattr(alone, field)[0]), field
                assert same_bits(value, getattr(shuffled, field)[-1 - i]), field
                assert same_bits(value, getattr(point, field)), field

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_one_row_outside_the_domain_rejects_the_batch(self, n):
        params = ModelParams(n=n, d=2, eps=0.1)
        x, y = sample_domain_points(params, np.random.default_rng(n), 2)
        far = np.concatenate([x.q * (1.5 * params.eps / x.r), x.p])
        # at rest inside the sphere: below the energy floor -Z / (2 n r**alpha)
        slow = np.concatenate([y.q, np.zeros(2)])
        good = np.concatenate([x.q, x.p])
        for bad in (far, slow):
            with pytest.raises(chart.ChartDomainError):
                chart.chart_forward_rows(params, np.stack([good, bad, good]))
        with pytest.raises(chart.DomainError):  # q = 0
            chart.chart_forward_rows(params, np.stack([good, np.concatenate([[0.0, 0.0], x.p])]))

    @pytest.mark.parametrize(
        "q,p,match",
        [
            ([0.05, 0.0], [1e155, 0.0], "energy H=inf is not finite"),  # |p|**2 overflows
            ([0.05, 0.0], [0.0, 1e155], "energy H=inf is not finite"),  # and so does |p_perp|**2
            ([0.05, 0.0], [3e200, -4e200], "energy H=inf is not finite"),
            ([1e200, 0.0], [0.0, 1.0], "point of U\\^eps"),  # |q|**2 overflows: r = inf
        ],
    )
    def test_state_beyond_the_float_range_is_refused_without_a_warning(self, q, p, match):
        params = ModelParams(n=3, d=2, eps=0.1)
        good, bad = np.array([0.05, 0.0, 0.0, 20.0]), np.array(q + p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(chart.ChartDomainError, match=match):
                chart.chart_forward(params, PhasePoint(bad[:2], bad[2:]))
            for rows in (bad[None], np.stack([good, bad, good])):  # one bad row refuses the batch
                with pytest.raises(chart.ChartDomainError, match=match):
                    chart.chart_forward_rows(params, rows)
            with pytest.raises(chart.ChartDomainError, match=match):
                verify.bracket_table(params, PhasePoint(bad[:2], bad[2:]))
            assert np.isfinite(chart.chart_forward_rows(params, np.stack([good, good])).T).all()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_one_supercritical_row_has_no_pericenter(self, n):
        params = ModelParams(n=n, d=2, eps=0.1)
        E = np.array([-0.5, -0.5, 0.3])
        l_circ = circular_l(params, -0.5)
        l = np.array([0.5 * l_circ, 1.01 * l_circ, 0.5 * l_circ])
        with pytest.raises(chart.NoPericenterError):
            chart._RadialOrbit(params, E, l)
        with pytest.raises(chart.NoPericenterError):  # one row, in floats
            chart._RadialOrbit(params, E[1:2], l[1:2])
        orbit = chart._RadialOrbit(params, E[[0, 2]], l[[0, 2]])
        for k, (Ek, lk) in enumerate(zip(E[[0, 2]], l[[0, 2]])):
            assert orbit.s0[k] == chart._sigma_min(params, Ek, lk * lk)

    @pytest.mark.parametrize("d", [2, 3])
    def test_exactly_radial_row_takes_the_completion_frame(self, d):
        params = ModelParams(n=3, d=d, eps=0.1)
        x = sample_domain_points(params, np.random.default_rng(d), 1)[0]
        u = x.q / x.r
        # p = -|p| q / |q| rounded keeps a part across q of about 1e-17 |p|,
        # and its own frame; p on a coordinate axis with q has none
        rounded = np.concatenate([x.q, -np.linalg.norm(x.p) * u])
        axis = np.eye(d)[d - 1]
        exact = np.concatenate([x.r * axis, -np.linalg.norm(x.p) * axis])
        rows = np.stack([np.concatenate([x.q, x.p]), rounded, exact])
        e1, e2, _, _ = cov.plane_reduce_rows(rows[:, :d], rows[:, d:])
        assert same_bits(e2[2], cov._completion(e1[2]))
        c = chart.chart_forward_rows(params, rows)
        for k, line in ((1, u), (2, axis)):
            alone = chart.chart_forward(params, PhasePoint(rows[k, :d], rows[k, d:]))
            assert same_bits(c.A[k], alone.A) and same_bits(c.T[k], alone.T)
            # a collision orbit: its pericenter direction is the line of q,
            # and B = 0 up to the rounding of p = -|p| q / |q|
            assert abs(abs(np.dot(c.A[k], line)) - 1.0) < 1e-15
            assert np.linalg.norm(c.B[k]) <= 1e-15 * x.r * np.linalg.norm(x.p)
        assert not c.B[2].any()

    @pytest.mark.parametrize("d", [2, 3])
    def test_kepler_rows_match_the_closed_form(self, d):
        params = ModelParams(n=2, d=d, eps=0.1)
        pts = sample_domain_points(params, np.random.default_rng(7 + d), 40)
        c = chart.chart_forward_rows(params, np.stack([np.concatenate([x.q, x.p]) for x in pts]))
        closed = [chart.kepler_time_closed_form(params, x) for x in pts]
        assert np.max(np.abs(c.T - closed)) <= 1e-13 * time_scale(params)


class TestOneRowOrbit:
    """A one-row `_RadialOrbit` finds its constants in Python floats, by
    `_sigma_min`'s one-root solvers; the same row of a stacked orbit, whose
    pericenter is the same root but whose other constants are numpy's,
    matches it bit for bit."""

    # (E, l): E < 0, E = 0 and E > 0, then l**2/(2m|E|) below the normal
    # floats (E > 0, E < 0) and beyond the float range (E > 0, E < 0)
    ORBITS = [(-0.3, 0.2), (-0.3, 0.0), (0.0, 0.2), (0.0, 0.0), (0.7, 0.2), (40.0, 3.0), (1e6, 1e-9)]
    SCALED = [(1e250, 1e-40), (-1e10, 1e-150), (1e-300, 1e5), (-1e-300, 1e5)]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_constants_are_the_stacked_rows(self, n):
        params = ModelParams(n=n, d=2)
        orbits = self.ORBITS + [(E, l) for E, l in self.SCALED if n > 1 or E > -1.0]
        if n >= 3:  # these take `_units`' scaled root on both paths
            for E, l in self.SCALED:
                assert not chart._TINY <= l * l / (2.0 * params.m * abs(E)) < np.inf
        E, l = (np.array(v) for v in zip(*orbits))
        stacked = chart._RadialOrbit(params, E, l)
        for k in range(len(E)):
            one = chart._RadialOrbit(params, E[k : k + 1], l[k : k + 1])
            assert one.s0.shape == one.G0.shape == one._inv_u_P.shape == (1,)
            for name in ("s0", "G0", "_inv_u_P"):
                assert same_bits(getattr(one, name), getattr(stacked, name)[k : k + 1]), (name, E[k], l[k])
            assert len(one._s0_powers) == len(stacked._s0_powers) == max(n - 2, 0)
            for power, column in zip(one._s0_powers, stacked._s0_powers):
                assert same_bits(np.float64(power), column[k, 0])


def test_production_paths_integrate_no_ode(monkeypatch, tmp_path):
    # the chart, `bracket_table`, `transit_time_check`, `global_flow`,
    # `trajectory` and `figures` are quadratures: no covering or physical ODE
    def refuse(*args, **kwargs):
        raise AssertionError("an ODE was integrated")

    monkeypatch.setattr(ode, "integrate", refuse)
    for n, d in GRID:
        params = ModelParams(n=n, d=d, eps=0.1)
        rng = np.random.default_rng(90 + 10 * n + d)
        for x in sample_domain_points(params, rng, 2):
            verify.bracket_table(params, x)
            assert isinstance(chart.chart_inverse(params, chart.chart_forward(params, x)), chart.Regular)
        verify.transit_time_check(params, cli._random_entry_state(params, rng))
        u = np.eye(d)[0]
        starts = [
            PhasePoint(0.05 * u, np.array([0.0, 0.8 * np.sqrt(2.0 * params.Z * 0.05**-params.alpha)] + [0.0] * (d - 2))),
            PhasePoint(0.05 * u, np.array([0.0, 2.0 * np.sqrt(2.0 * params.Z * 0.05**-params.alpha)] + [0.0] * (d - 2))),
            chart.Collision(h=-0.5 if n > 1 else 0.5, a=u),
        ]
        for start in starts:
            chart.global_flow(params, start, 0.01)
            chart.trajectory(params, start, [0.0, 0.01, 0.02])
    assert cli.main(["figures", "all", "--out", str(tmp_path)]) == cli.EXIT_OK


class TestOneRowSolve:
    """A one-row solve takes `_solve_one`, in Python floats; `_solve_rows`,
    the array path, is its oracle: the same x bits after the same number
    of iterations."""

    @pytest.fixture
    def checked(self, monkeypatch):
        """Every one-row solve of the code under test, checked against the
        array path on the same inputs; returns the solves checked."""
        seen = []

        def solve(f, t, x, lo, hi, tol, rtol=0.0, first=None):
            args = (f, t, x, lo, hi, tol, rtol, first)
            if not np.size(x) == np.size(lo) == np.size(hi) == 1:
                return chart._solve_rows(*args)
            got = chart._solve_one(*args)
            want = chart._solve_rows(*args)
            assert got.x.shape == want.x.shape and same_bits(got.x, want.x)
            assert got.iterations == want.iterations
            assert (got.carried is None) == (want.carried is None)
            assert got.carried is None or same_bits(got.carried, want.carried)
            seen.append(got)
            return got

        monkeypatch.setattr(chart, "_solve_increasing", solve)
        return seen

    @staticmethod
    def both(*args):
        got, want = chart._solve_one(*args), chart._solve_rows(*args)
        assert got.x.shape == want.x.shape and same_bits(got.x, want.x)
        assert got.iterations == want.iterations
        return got

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_bound_place(self, checked, n):
        params = ModelParams(n=n, d=2)
        rng = np.random.default_rng(n)
        fracs = (0.0, 1e-6, 0.3, 0.9, 0.999)
        for frac in fracs:
            orbit = chart._BoundOrbit(params, -0.5, frac * circular_l(params, -0.5))
            P = orbit.period
            # the pericenter, the series guess below the table's first step,
            # the apocenter and many periods on both sides
            times = [0.0, 1e-12 * P, 1e-4 * P, 0.5 * P, *rng.uniform(-40.0, 60.0, 20) * P]
            for t in times:
                orbit.place(np.array([t]))
        assert len(checked) == len(fracs) * len(times)
        assert all(sol.carried is not None for sol in checked)  # the swept angle

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_global_flow_steps(self, checked, n):
        # unbound and bound starts, and launches from the collision set
        params = ModelParams(n=n, d=3)
        rng = np.random.default_rng(10 + n)
        starts = [chart.Collision(h=h, a=np.array([0.0, 0.6, 0.8])) for h in (-0.5, 0.0, 2.0)]
        starts += [chart.Regular(PhasePoint(0.05 * rng.normal(size=3), 10.0 * rng.normal(size=3)))
                   for _ in range(10)]
        steps = (1e-6, 1e-3, 0.3, -0.02, 40.0)
        for state in starts:
            for t in steps:
                chart.global_flow(params, state, t)
        assert len(checked) == len(starts) * len(steps)
        assert {type(s.x) for s in checked} == {np.ndarray}

    @pytest.mark.parametrize("n,d", [(n, d) for n in (2, 3, 4) for d in (2, 3)])
    def test_chart_inverse(self, checked, n, d):
        params = ModelParams(n=n, d=d)
        points = sample_domain_points(params, np.random.default_rng(n * d), 8)
        for x in points:
            chart.chart_inverse(params, chart.chart_forward(params, x))
        a = np.eye(d)[0]
        for T in (1e-7, -1e-4):  # collision orbits, B = 0
            chart.chart_inverse(params, chart.ChartPoint(T=T, H=-0.5, B=np.zeros(d), A=a))
        assert len(checked) == len(points) + 2

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("bound", [True, False])
    def test_zero_rate_bisects(self, n, bound):
        # collision orbits: dT/dx = 0 at the pericenter x = 0, so the first
        # Newton step divides by zero and bisects instead
        params = ModelParams(n=n, d=2)
        if bound:
            orbit, hi = chart._BoundOrbit(params, -0.5, 0.0), np.pi / 2.0
            rate = orbit.rate(np.zeros(1))[0]
        else:
            orbit, hi = chart._RadialOrbit(params, np.array([0.5]), np.array([0.0])), 1.0
            rate = orbit._rate_one(0.0)
        assert rate == 0.0 and orbit._fused(np.zeros(1))[1][0] == 0.0
        root = np.array([0.3])
        sol = self.both(orbit._fused, orbit.time(root), np.zeros(1), 0.0, hi, 4.0 * np.spacing(hi))
        assert sol.iterations > 1 and abs(sol.x[0] - root[0]) <= 1e-14

    def test_exact_target_keeps_the_guess(self):
        orbit = chart._BoundOrbit(ModelParams(n=3, d=2), -0.5, 0.35)
        guess = np.array([0.7])
        sol = self.both(orbit._fused, orbit.time(guess), guess, 0.0, np.pi / 2.0, 0.0, chart._PHI_RTOL)
        assert sol.iterations == 1 and same_bits(sol.x, guess)

    def test_runs_to_the_iteration_cap(self):
        # no step is at most a negative tolerance
        orbit = chart._BoundOrbit(ModelParams(n=3, d=2), -0.5, 0.35)
        sol = self.both(orbit._fused, np.array([0.2]), np.array([0.1]), 0.0, np.pi / 2.0, -1.0)
        assert sol.iterations == chart._SOLVE_MAX_ITER

    @pytest.mark.parametrize(
        "x,lo,hi",
        [(-0.0, 0.0, 1.0), (0.0, -0.0, 1.0), (2.0, 0.0, 1.0), (-1.0, 0.0, 1.0), (0.5, 1.0, 0.0),
         (0.5, -0.0, -0.0)],
    )
    @pytest.mark.parametrize("target", [0.0, -0.0, 0.125, 2.0])
    def test_clip_and_signed_zeros(self, x, lo, hi, target):
        # np.clip's choices: the bound on a tie of signed zeros, hi when lo > hi
        cube = lambda v: (v * v * v, 3.0 * v * v)  # noqa: E731
        self.both(cube, np.array([target]), np.array([x]), lo, hi, 1e-15)

    @pytest.mark.parametrize("guess", [5.0, 9.0, 2.5])
    def test_nan_residual_counts_as_too_high(self, guess):
        # f is x - 1 up to 2 and NaN beyond: the root is 1, not the midpoint
        # of a bracket that a NaN residual never narrows
        def f(x):
            return np.where(x <= 2.0, x - 1.0, np.nan), np.ones_like(x)

        sol = self.both(f, np.zeros(1), np.array([guess]), 0.0, 10.0, 1e-15)
        assert abs(sol.x[0] - 1.0) <= 4.0 * np.spacing(1.0)
        rows = chart._solve_rows(f, np.zeros(3), np.full(3, guess), 0.0, 10.0, 1e-15)
        assert np.all(np.abs(rows.x - 1.0) <= 4.0 * np.spacing(1.0))

    @pytest.mark.parametrize("x,lo,hi", [(np.nan, 0.0, 10.0), (5.0, np.nan, 10.0), (5.0, 0.0, np.nan)])
    def test_a_nan_start_stops_after_one_round(self, x, lo, hi):
        # a NaN guess or bound leaves no bracket to narrow, so x stays NaN:
        # the solve stops after its first round (it ran out its 64 before)
        sol = self.both(lambda v: (v - 1.0, np.ones_like(v)), np.zeros(1), np.array([x]), lo, hi, 1e-15)
        assert np.isnan(sol.x[0]) and sol.iterations == 1

    def test_orbits_keep_no_per_call_state(self):
        # a solve's rounds pass their values through the solver alone: no
        # attribute of the orbit is set or rebound, but the cached properties
        def attributes(orbit):
            return {k: v for k, v in vars(orbit).items() if k not in ("_series", "_apsides")}

        def unchanged(orbit, solve):
            before = attributes(orbit)
            solve()
            after = attributes(orbit)
            assert after.keys() == before.keys() and all(after[k] is before[k] for k in before)

        params = ModelParams(n=3, d=2)
        bound = chart._BoundOrbit(params, -0.5, 0.35)
        for ts in ([0.7], [0.7, -3.1, 20.0]):
            unchanged(bound, lambda: bound.place(np.array(ts)))
        for E in (0.3, 40.0):  # rounds within u_P, and far beyond it
            orbit = chart._RadialOrbit(params, np.array([E]), np.array([0.2]))
            unchanged(orbit, lambda: orbit.place(np.array([50.0])))  # one row
            ts = np.array([0.01, 0.4, 50.0])
            unchanged(orbit, lambda: chart._solve_increasing(orbit._fused, ts, np.ones(3), 0.0, 1e3, 1e-15))

    def test_one_row_takes_the_float_path(self, monkeypatch):
        def fail(*args):
            raise AssertionError("wrong path")

        params = ModelParams(n=3, d=2)
        monkeypatch.setattr(chart, "_solve_rows", fail)
        for p in ([0.0, 1.0], [0.0, 50.0]):  # bound and unbound
            chart.global_flow(params, PhasePoint(np.array([0.05, 0.0]), np.array(p)), 0.3)
        x = sample_domain_points(params, np.random.default_rng(0), 1)[0]
        chart.chart_inverse(params, chart.chart_forward(params, x))
        chart._sample(chart._BoundOrbit(params, -0.5, 0.35), np.array([0.7]))
        monkeypatch.undo()
        monkeypatch.setattr(chart, "_solve_one", fail)
        chart._sample(chart._BoundOrbit(params, -0.5, 0.35), np.linspace(0.0, 1.0, 5))


class TestOneStatePath:
    """A one-state bound step pays for each quadrature once: each Newton
    round reads T, dT/dphi, the angle and its rate from one node pass, the
    period, the start and Newton's first round share one stacked pass, and
    the turning points and placement glue run in Python floats.  The
    many-row paths are its oracles, bit for bit."""

    FRACS = (0.0, 1e-6, 0.35, 0.999)  # of the circular orbit's l

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_fused_round_is_time_and_rate(self, n):
        params = ModelParams(n=n, d=2)
        rng = np.random.default_rng(n)
        for frac in self.FRACS:
            orbit = chart._BoundOrbit(params, -0.5, frac * circular_l(params, -0.5))
            for x in (0.0, np.pi / 2.0, 1e-9, *rng.uniform(0.0, np.pi / 2.0, 20)):
                T, dT, angle, angle_rate = orbit._fused(np.array([x]))  # x is the pass's 33rd node
                rows = np.array([x, x])  # two phases: their own pass, and dT/dphi in closed form
                assert same_bits(T, orbit.time(rows)[:1]) and same_bits(dT, orbit.rate(rows)[:1])
                assert same_bits(angle, orbit._fused(rows)[2][:1])
                if 0.05 < x < np.pi / 2.0 - 0.05:  # the angle's rate against a central difference
                    h = 1e-5
                    step = orbit._fused(np.array([x + h]))[2] - orbit._fused(np.array([x - h]))[2]
                    assert angle_rate[0] == pytest.approx(step[0] / (2.0 * h), rel=1e-7, abs=1e-7 * n)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_stacked_pass_is_two_passes(self, n):
        # the start's pass, pi/2, the start and Newton's first phase stacked,
        # against each phase's own pass
        params = ModelParams(n=n, d=2)
        rng = np.random.default_rng(10 + n)
        for frac in self.FRACS:
            l = frac * circular_l(params, -0.5)
            for x, phi in zip((0.0, np.pi / 2.0, None, *rng.uniform(0.0, np.pi / 2.0, 10)),
                              (None, 0.3, 1.0, *rng.uniform(0.0, np.pi / 2.0, 10))):
                stacked, alone = chart._BoundOrbit(params, -0.5, l), chart._BoundOrbit(params, -0.5, l)
                passes = []
                one_pass = stacked._fused
                stacked._fused = lambda p: (passes.append(np.shape(p)), one_pass(p))[1]
                tau0, theta0, first = stacked.start(x, -1.0, phi)
                half, apsis = alone._fused(np.array([np.pi / 2.0]))[::2]
                assert same_bits(stacked.period, 2.0 * half[0]) and same_bits(stacked.apsis, apsis[0])
                want = np.zeros(2) if x is None else -np.array([v[0] for v in alone._fused(np.array([x]))[::2]])
                assert same_bits(np.array([tau0, theta0]), want)
                if phi is None:
                    assert first is None
                else:
                    assert same_bits(np.array(first), np.array([v[0] for v in alone._fused(np.array([phi]))]))
                assert passes == [(1 + (x is not None) + (phi is not None),)]

    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(
        n=st.integers(2, 6),
        case=st.sampled_from(["bound", "double root", "near circular", "cut", "unbound", "far", "cap", "l = 0"]),
        a=st.floats(0.0, 1.0),
        b=st.floats(-6.0, 3.0),
    )
    @example(n=2, case="far", a=1.0, b=3.0)
    @example(n=3, case="far", a=0.5, b=0.0)
    @example(n=3, case="cap", a=1.0, b=0.0)
    @example(n=6, case="cap", a=0.5, b=-6.0)
    @example(n=4, case="double root", a=0.0, b=0.0)
    def test_scalar_turning_points_are_the_rows(self, n, case, a, b):
        # floats in, the rows' bits out: the pericenter, the peak of
        # E s**n + Z s, NoPericenterError alike
        params = ModelParams(n=n, d=2)
        m, Z = params.m, params.Z
        E = -(10.0**b)
        if case == "cut":  # just inside E > -1e-154 (n = 2), where bound orbits end
            E = -Z * np.exp(-700.0 * (n - 1.0) / n) * (1.0 + 1e-3 * a)
        elif case in ("unbound", "far", "cap") or (case == "l = 0" and a > 0.5):
            # far: E s**n at s = l2/(2mZ) (n >= 3) or 2 E l2/m (n = 2) overflows;
            # cap: l2/(2mZ) lies many powers of 2 above the root
            E = 10.0 ** {"cap": b + 40.0 * a, "far": b + 6.0}.get(case, b)
        if E < 0.0:
            peak = chart._peak(Z, n, E)[1]
            rhs = {"double root": peak, "near circular": peak * (1.0 - 1e-2 * a), "l = 0": 0.0}.get(case, a * peak)
        else:
            rhs = {"far": 10.0 ** (200.0 + 100.0 * a), "cap": 10.0**b * E, "l = 0": 0.0}.get(case, 10.0 ** (16 * a - 8))
        l2 = 2.0 * m * rhs
        try:
            one = chart._sigma_min(params, E, l2)
        except chart.NoPericenterError:
            with pytest.raises(chart.NoPericenterError):
                chart._sigma_min(params, np.full(2, E), np.full(2, l2))
            return
        rows = chart._sigma_min(params, np.full(2, E), np.full(2, l2))
        assert type(one) is float and same_bits(np.float64(one), rows[0])
        assert np.isfinite(one)
        if case == "near circular" and rhs > 0.0:
            s_c = chart._peak(Z, n, E)[0]
            sigma = s_c * (1.0 + 1e-3 * (a - 0.5))
            orbit = chart._BoundOrbit.through(params, E, np.sqrt(l2), sigma, 0.0)
            assert orbit.s0 <= s_c <= orbit.s1

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_one_time_place_is_the_array_place(self, n):
        # the float glue (fmod, the half-period shift, round, the sign, the
        # table guess) against the arrays: k, side, phi and the iterations
        params = ModelParams(n=n, d=2)
        rng = np.random.default_rng(20 + n)
        for frac in self.FRACS:
            orbit = chart._BoundOrbit(params, -0.5, frac * circular_l(params, -0.5))
            P, first = orbit.period, orbit._series[0][1]
            times = [0.0, -0.0, 1e-300, 0.3 * first, -0.7 * first, first, P, -P, 7.0 * P, 0.5 * P,
                     -0.5 * P, 2.5 * P, -3.5 * P, 1e300, -1e300, *rng.uniform(-50.0, 50.0, 20) * P]
            for t in times:
                k, side, sol = orbit.place(np.array([t]))
                K, S, rows = orbit.place(np.array([t, t]))
                assert same_bits(k, K[:1]) and same_bits(side, S[:1]) and same_bits(sol.x, rows.x[:1])
                assert sol.iterations == rows.iterations

    def test_one_state_step_takes_the_one_state_path(self, monkeypatch):
        # a bound global_flow step: one stacked pass of pi/2, the start and
        # Newton's first guess, whose round confirms it and carries the end
        # angle; no rows solve, no separate period pass and no angle pass
        params = ModelParams(n=3, d=2)
        shapes = []
        one_pass = chart._BoundOrbit._fused

        def spy(self, phi):
            shapes.append(np.shape(phi))
            return one_pass(self, phi)

        monkeypatch.setattr(chart._BoundOrbit, "_fused", spy)
        monkeypatch.setattr(chart, "_solve_rows", None)
        x = PhasePoint(np.array([0.25, 0.0]), np.array([0.3, 1.3]))  # P = 0.214
        chart.global_flow(params, x, 0.1)
        assert shapes == [(3,)]
        # beyond _SERIES_PERIODS periods the guess waits for the exact period:
        # the start's pass, then a round
        shapes.clear()
        chart.global_flow(params, x, 0.7)
        assert shapes == [(2,), (1,)]


class TestSeriesGuess:
    """Newton's first guess on a bound orbit reads T on _PHI_GRID from the
    cosine series of dT/dphi: the quadrature's T to round-off of T(pi/2)."""

    @staticmethod
    def orbits(params):
        """Collision (s0 = 0), deep (s0/s1 <= 1e-6), middling, near-circular
        and circular (width 0) orbits at three energies."""
        for E in (-0.5, -3.0, -1e-3):
            l_c = circular_l(params, E)
            for frac in (0.0, 1e-9, 1e-3, 0.35, 0.999, 1.0 - 1e-9):
                yield chart._BoundOrbit(params, E, frac * l_c)
            s_c = chart._peak(params.Z, params.n, E)[0]
            yield chart._BoundOrbit(params, E, l_c, turning=(s_c, s_c))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_table_is_the_quadrature(self, n):
        params = ModelParams(n=n, d=2)
        kinds = collections.Counter()
        for orbit in self.orbits(params):
            T = orbit._series[0]
            kinds["collision" if orbit.s0 == 0.0 else "deep" if orbit.s0 <= 1e-6 * orbit.s1 else
                  "circular" if orbit.s1 == orbit.s0 else "other"] += 1
            # 1e-15 of T(pi/2) measured
            assert np.max(np.abs(T - orbit.time(chart._PHI_GRID))) <= 1e-13 * (0.5 * orbit.period)
            assert np.all(np.diff(T) >= 0.0) and T[0] == 0.0
        assert kinds["collision"] == 3 and kinds["deep"] >= 6 and kinds["circular"] == 3

    def test_kepler_series_has_two_terms(self):
        # n = 2: sigma = r = a (1 - e cos 2 phi), so 2 phi is the eccentric
        # anomaly and T = (P / 2 pi)(2 phi - e sin 2 phi), Kepler's equation
        params = ModelParams(n=2, d=2)
        for frac in (0.0, 0.35, 0.999):
            orbit = chart._BoundOrbit(params, -0.5, frac * circular_l(params, -0.5))
            _, _, a0, _, a = orbit._series
            e = (orbit.s1 - orbit.s0) / (orbit.s1 + orbit.s0)
            assert a0 == pytest.approx(orbit.period / np.pi, rel=1e-15)
            assert a[0] == pytest.approx(-e * a0, rel=1e-14, abs=1e-15 * a0)
            assert np.max(np.abs(a[1:])) <= 1e-14 * a0  # the DCT rounds: 2e-15 measured

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_guess_is_the_root_within_a_round(self, n):
        # from the guess the quadrature's Newton ends in one round, apart
        # from a few times where T is a small part of T(pi/2): means of
        # 1.005-1.021 and at most 2 rounds measured
        params = ModelParams(n=n, d=2)
        rng = np.random.default_rng(40 + n)
        rounds = []
        for orbit in self.orbits(params):
            for t in rng.uniform(0.0, 0.5, 20) * orbit.period:
                rounds.append(orbit.place(np.array([t]))[2].iterations)
        assert np.mean(rounds) <= 1.2 and max(rounds) <= 3


def closed_form_rate(orbit, u):
    """dT/du = K sigma**(n-1) / sqrt(G) on a one-row `_RadialOrbit` at an
    array of u, on a (j, 1) array of sigma; far out, where sqrt(G) or
    sigma**(n-1) overflows, K sigma**(n/2-1) / g with `_far`'s g."""
    sigma = (orbit.s0 + u * u)[:, None]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        power, rG = sigma ** (orbit.n - 1), np.sqrt(orbit.G(sigma))
        far_power, g = orbit._far(sigma)
        return np.where((power < np.inf) & (rG < np.inf), orbit.K * power / rG, orbit.K * far_power / g)[:, 0]


def small_values_bound(orbit, E):
    """u**2 out to which a one-row orbit's values stay below 1e100, so that
    no product of three overflows: (1e100 / max(1, n E))**(1/(n-1)) - s0,
    or -1 where E, G0, K or sqrt(2m) exceeds 1e100.  The one-row passes
    once skipped np.errstate within it; the tests keep it to place their
    samples on both sides of it."""
    n, G0, s0 = orbit.n, float(orbit.G0[0]), float(orbit.s0[0])
    if not all(v <= 1e100 for v in (E, G0, orbit.K, orbit.root2m)):
        return -1.0
    return (1e100 / max(1.0, n * E)) ** (1.0 / max(1, n - 1)) - s0


class TestOneStateUnbound:
    """A one-state unbound step: each Newton round reads T, dT/du, the
    swept angle and its rate from one node pass, the start's r, E and <q,p>
    come from three dot products, and no pass warns, whatever its values.
    The many-row paths, the model's functions and mpmath's quadrature are
    its oracles."""

    ORBITS = [(E, l) for E in (0.0, 0.3, 40.0, 1e6) for l in (0.0, 1e-9, 0.2, 3.0)]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_fused_round_is_time_and_rate(self, n):
        params = ModelParams(n=n, d=2)
        rng = np.random.default_rng(30 + n)
        within, small, floats = 0, 0, 0
        for E, l in self.ORBITS:
            orbit = chart._RadialOrbit(params, np.array([E]), np.array([l]))
            u_P = 1.0 / orbit._inv_u_P[0] if orbit._inv_u_P[0] > 0.0 else 10.0
            for x in (0.0, 1e-9, u_P, *(u_P * rng.uniform(0.0, 3.0, 12))):
                T, dT = orbit._fused(np.array([x]), angle=False)
                within += not x * orbit._inv_u_P[0] > 1.0
                small += x * x <= small_values_bound(orbit, E)
                rows = np.array([x, x])  # a stacked pass, and dT/du in closed form
                assert same_bits(T, orbit.time(rows)[:1]) and same_bits(dT, closed_form_rate(orbit, rows)[:1])
                # the float rate of `step_guess`, where finite
                one = orbit._rate_one(x)
                assert not np.isfinite(one) or abs(one - dT[0]) <= 2.0 * np.spacing(dT[0]), (E, l, x)
                floats += np.isfinite(one)
        assert within > 100 and small > 100 and floats > 100

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_fused_pass_with_the_angle(self, n):
        # T, dT/du, the swept angle and its rate against mpmath's quadrature
        # of their integrands: near u_P or sqrt(s0), 4 times beyond
        # `small_values_bound`, and at E = 1e300 where E u**(2n-2)
        # overflows, so that the far forms replace T's integrand, its rate
        # and the angle's remainder; each
        # relative to the larger of the value and 1e-290 (a rate that
        # underflows reads 0), where T stays below 1e300.  T and the angle
        # within 5e-15 (3.6e-15 measured), the rates within 1e-15 (5.9e-16)
        params = ModelParams(n=n, d=2)
        far, worst = 0, np.zeros(4)
        for E, l in ((0.0, 0.2), (0.3, 0.2), (40.0, 1e-9), (1e6, 3.0), (1e300, 1e100), (1e300, 0.0)):
            orbit = chart._RadialOrbit(params, np.array([E]), np.array([l]))
            near = max(1.0 / orbit._inv_u_P[0] if orbit._inv_u_P[0] > 0.0 else 1.0, np.sqrt(orbit.s0[0]))
            bound = small_values_bound(orbit, E)
            us = [0.5 * near, 3.0 * near] + ([4.0 * np.sqrt(bound)] if bound > 0.0 else [])
            overflow = np.exp((np.log(np.finfo(float).max) - np.log(E)) / (2 * n - 2)) if E > 0.0 else np.inf
            us += [overflow, 30.0 * overflow] if overflow < 1e10 else []
            got = np.array(orbit._fused(np.array(us)))
            want = radial_oracle(params, E, l, orbit.s0[0], us)
            keep = want[0] < 1e300
            err = np.abs(got - want) / np.maximum(np.abs(want), 1e-290)
            worst = np.maximum(worst, err[:, keep].max(axis=1))
            far += int(np.sum(keep & ~(np.square(us) <= bound)))
        assert worst[0] <= 5e-15 and worst[2] <= 5e-15 and worst[1] <= 1e-15 and worst[3] <= 1e-15
        assert far >= 10  # 12 measured

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_fused_pass_where_E_over_Z_overflows(self, n):
        # m = Z = 1e-300 from q = (0.05, 0), p = (0.3, 0.4): E/Z ~ 1e599
        # overflows, so 1/u_P takes the powers of E and Z apart and u/u_P up
        # to ~1e302 takes ~1000 panels (the panel count read inf); the pass
        # within the gates of the pass above, and a stacked row the one
        # row's chart image, bit for bit, with no warning
        params = ModelParams(n=n, d=2, m=1e-300, Z=1e-300)
        z = np.array([[0.05, 0.0, 0.3, 0.4], [0.03, 0.01, -0.2, 0.5]])
        x = PhasePoint(z[0, :2], z[0, 2:])
        E, l = hamiltonian(params, x), 0.05 * 0.4
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            orbit = chart._RadialOrbit(params, np.array([E]), np.array([l]))
            u_P = 1.0 / orbit._inv_u_P[0]
            us = [0.5 * u_P, 3.0 * u_P, float(orbit.phase(0.05 ** (2.0 / n), x.radial)[0]), 1e3]
            got = np.array(orbit._fused(np.array(us)))
            rows = chart.chart_forward_rows(params, z)
            for k in range(2):
                one = chart.chart_forward(params, PhasePoint(z[k, :2], z[k, 2:]))
                assert same_bits(rows.T[k], one.T) and same_bits(rows.A[k], one.A)
        want = radial_oracle(params, E, l, orbit.s0[0], us)
        err = np.abs(got - want) / np.maximum(np.abs(want), 1e-290)
        assert err[[0, 2]].max() <= 5e-15 and err[[1, 3]].max() <= 1e-15

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_step_guess_is_the_root_of_a_short_step(self, n):
        # the 8-node rule on the step's own interval, a step in the signed
        # U = side u of 5 % of max(|U0|, sqrt(s0)), through the pericenter
        # too, against `place`'s root from the pericenter, which stops
        # within 4 ulp itself: 5 ulp measured
        params = ModelParams(n=n, d=2)
        rng = np.random.default_rng(50 + n)
        for E, l in self.ORBITS:
            orbit = chart._RadialOrbit(params, np.array([E]), np.array([l]))

            def T(U):
                return np.sign(U) * orbit.time(np.array([abs(U)]))[0]

            for U0 in rng.uniform(-1.0, 1.0, 12) * rng.choice([1e-3, 0.1, 1.0, 10.0], 12):
                U1 = U0 + 0.05 * max(abs(U0), np.sqrt(orbit.s0[0])) * rng.uniform(-1.0, 1.0)
                t = T(U1) - T(U0)
                (u,) = orbit.step_guess(abs(U0), np.sign(U0), t)
                want = orbit.place(np.array([T(U0) + t]))[2].x[0]
                assert abs(u - want) <= 8.0 * np.spacing(want)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_G0_where_its_power_overflows(self):
        # Z + E s0**(n-1) with s0**(n-1) beyond the float range: G0 is
        # l**2/(2m s0), as f(s0) = 0 has it, for one row and for rows, with
        # no warning; a chart point on such an orbit is refused as outside
        params = ModelParams(n=6, d=2)
        one = chart._RadialOrbit(params, np.array([1e-95]), np.array([1e138]))
        rows = chart._RadialOrbit(params, np.array([1e-95, 0.3]), np.array([1e138, 0.2]))
        with mp.workdps(40):
            E, rhs = mp.mpf(1e-95), mp.mpf(1e138) ** 2 / 2
            s0 = mp.mpf(float(one.s0[0]))
            for _ in range(6):  # Newton on E s**6 + Z s = l**2/2m
                s0 -= (E * s0**6 + params.Z * s0 - rhs) / (6 * E * s0**5 + params.Z)
            want = float(params.Z + E * s0**5)
        for orbit in (one, rows):
            # to the pericenter root's own accuracy (`r_min`: 1e-13; 8e-15 here)
            assert orbit.G0[0] == 1e276 / 2.0 / orbit.s0[0] and orbit.G0[0] == pytest.approx(want, rel=1e-13)
        assert rows.G0[1] == chart._RadialOrbit(params, np.array([0.3]), np.array([0.2])).G0[0]
        with pytest.raises(chart.ChartDomainError, match="pericenter lies outside the chart domain"):
            point = chart.ChartPoint(T=1.0, H=10.0**-297.77, B=np.array([0.0, 1e149]), A=np.array([1.0, 0.0]))
            chart.chart_inverse(ModelParams(n=4, d=2), point)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 6),
        log_E=st.floats(-300.0, 300.0),
        log_l=st.floats(-150.0, 150.0),
        frac=st.floats(0.0, 1.0),
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_no_pass_warns_anywhere(self, n, log_E, log_l, frac):
        # the one-row float rate, state, node pass (of one u and of two) and
        # short-step guess, out to 4 times `small_values_bound` (or sqrt(s0)
        # and 1 where it is -1): none warns, nor raises from the float rate
        # or the guess
        params = ModelParams(n=n, d=2)
        E = 10.0**log_E
        orbit = chart._RadialOrbit(params, np.array([E]), np.array([10.0**log_l]))
        bound = small_values_bound(orbit, E)
        x = 4.0 * frac * np.sqrt(bound if bound >= 0.0 else max(orbit.s0[0], 1.0))
        u = np.array([x])
        orbit._rate_one(float(x))
        orbit.time(u)
        with np.errstate(divide="ignore", invalid="ignore"):  # as `_step` reads it: r may be 0
            orbit.state(float(x))
        orbit._fused(u)
        orbit._fused(np.array([x, 0.5 * x]))  # a start stacked on its guess
        orbit.step_guess(float(x), 1.0, 1.0)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 6),
        d=st.integers(2, 5),
        m=st.sampled_from([1.0, 0.7, 3.0]),
        log_r=st.floats(-100.0, 100.0),
        log_p=st.floats(-100.0, 100.0),
        seed=st.integers(0, 2**16),
    )
    def test_start_constants_are_the_models(self, n, d, m, log_r, log_p, seed):
        # r, E and <q,p> from three dot products against x.r, `hamiltonian`
        # and x.radial; an energy beyond the float range raises alike
        params = ModelParams(n=n, d=d, m=m, Z=1.3)
        rng = np.random.default_rng(seed)
        x = PhasePoint(10.0**log_r * rng.normal(size=d), 10.0**log_p * rng.normal(size=d))
        try:
            want = (x.r, hamiltonian(params, x), x.radial)
        except OverflowError:
            with pytest.raises(OverflowError):
                chart._radius_energy_radial(params, x)
            return
        got = chart._radius_energy_radial(params, x)
        assert [type(v) for v in got] == [float] * 3
        assert all(same_bits(a, b) for a, b in zip(got, want))

    def test_start_at_the_origin_raises_domain_error(self):
        params = ModelParams(n=3, d=2)
        x = PhasePoint(np.zeros(2), np.array([1.0, 0.0]))
        with pytest.raises(chart.DomainError):
            chart._radius_energy_radial(params, x)
        with pytest.raises(chart.DomainError):
            chart.global_flow(params, x, 0.1)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_huge_energy_root_is_the_rows(self, n):
        # where n E overflows (E = |p|**2/2m of a finite |p|**2 reaches it
        # from n = 3), the Newton slope is n (E s**(n-1)): a radial orbit's
        # pericenter is 0, not NaN, on both paths
        params = ModelParams(n=n, d=2)
        for E in (1.7976e308 / n * 1.0001, 3e307, 8.9e307):
            for l2 in (0.0, 1e-20, 1.0, 1e150):
                one = chart._sigma_min(params, E, l2)
                rows = chart._sigma_min(params, np.full(2, E), np.full(2, l2))
                assert np.isfinite(one) and same_bits(np.float64(one), rows[0])
                assert (one == 0.0) == (l2 == 0.0)


class TestExtremeMassAndCoupling:
    """The maps over m and Z from 1e-300 to 1e300, from starts at each
    cell's own scales: r in (0.1, 0.9) eps, |p| within a factor 2 of
    sqrt(2m Z) r**(-alpha/2) and t within 3 of m r / |p|."""

    SCALES = (1e-300, 1e-200, 1e-100, 1e-10, 1.0, 1e10, 1e100, 1e200, 1e300)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_maps_warn_nowhere(self):
        # chart_forward, chart_inverse of its image and global_flow, two
        # seeded starts per (n, m, Z): each returns finite values or raises
        # its DomainError, and none warns (at Z = 1e-300 the angle's
        # remainder divided by a denominator that underflows to 0)
        rng, done = np.random.default_rng(29), collections.Counter()
        for n in (2, 3, 4, 5, 8):
            for m in self.SCALES:
                for Z in self.SCALES:
                    params = ModelParams(n=n, d=2, m=m, Z=Z)
                    for _ in range(2):
                        r = params.eps * rng.uniform(0.1, 0.9)
                        speed = np.sqrt(2.0 * m) * np.sqrt(Z) * r ** (-params.alpha / 2.0) * rng.uniform(0.5, 2.0)
                        a, b = rng.uniform(0.0, 2.0 * np.pi, 2)
                        x = PhasePoint(r * np.array([np.cos(a), np.sin(a)]), speed * np.array([np.cos(b), np.sin(b)]))
                        t = float(np.exp(np.log(m) + np.log(r) - np.log(speed))) * rng.uniform(-3.0, 3.0)
                        try:
                            c = chart.chart_forward(params, x)
                            assert np.isfinite([c.T, c.H, *c.B, *c.A]).all()
                            done["chart_forward"] += 1
                            y = chart.chart_inverse(params, c)
                            assert np.isfinite([*y.x.q, *y.x.p]).all()
                            done["chart_inverse"] += 1
                        except DomainError:
                            pass
                        try:
                            end = chart.global_flow(params, x, t)
                            assert np.isfinite([*end.x.q, *end.x.p] if isinstance(end, chart.Regular) else [end.h, *end.a]).all()
                            done["global_flow"] += 1
                        except DomainError:
                            pass
        # of 810 starts: 496, 496 and 730 measured; the rest are outside U^eps or the floats
        assert done["chart_forward"] >= 450 and done["chart_inverse"] >= 450 and done["global_flow"] >= 650, done

    @pytest.mark.parametrize("n", [3, 5])
    def test_chart_where_the_orthogonal_momentum_squares_to_a_subnormal(self, n):
        # |p_perp|**2 = 5.8e-321: A read 2.8e-4 off unit length and
        # chart_inverse refused it as "A must be a unit vector"
        params = ModelParams(n=n, d=2, m=1e-300, Z=1e-300)
        c = chart.chart_forward(params, PhasePoint(np.array([0.03, -0.04]), np.array([0.3e-160, 0.7e-160])))
        assert abs(np.linalg.norm(c.A) - 1.0) <= 1e-15
        assert isinstance(chart.chart_inverse(params, c), chart.Regular)


    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_round_trip_where_p_squares_to_a_subnormal(self, n):
        # <p,p> = 5.8e-321 and l**2 = 1.1e-323: the energy and l**2/2m are
        # taken from p and l scaled by powers of two, so H keeps its digits,
        # bit for bit on the three paths, and the round trip holds; unscaled
        # both lost digits, and it missed by 0.3 % (n = 3) to 6 %
        params = ModelParams(n=n, d=2, m=1e-300, Z=1e-300)
        q, p = np.array([0.03, -0.04]), np.array([0.3e-160, 0.7e-160])
        x = PhasePoint(q, p)
        with mp.workdps(30):
            r = mp.sqrt(mp.mpf(q[0]) ** 2 + mp.mpf(q[1]) ** 2)
            kinetic = (mp.mpf(p[0]) ** 2 + mp.mpf(p[1]) ** 2) / (2 * mp.mpf(params.m))
            want = float(kinetic - mp.mpf(params.Z) * r ** -mp.mpf(params.alpha))
        H = hamiltonian(params, x)
        assert H == pytest.approx(want, rel=1e-15, abs=0.0)
        rows = chart.chart_forward_rows(params, np.concatenate([q, p])[None])
        assert same_bits(H, chart._radius_energy_radial(params, x)[1]) and same_bits(H, rows.H[0])
        back = chart.chart_inverse(params, chart.chart_forward(params, x)).x
        assert np.abs(back.q - q).max() <= 1e-13 * x.r
        assert np.abs(back.p - p).max() <= 1e-13 * np.hypot(*p)


class TestOverflowingPotential:
    """A state where |q|**(-alpha) overflows (n = 50, |q| = 1e-160) has
    energy -inf, and the domain test, the chart and the flow refuse it with
    their own errors, without a RuntimeWarning or OverflowError."""

    PARAMS = ModelParams(n=50, d=2, eps=0.1)
    X = PhasePoint(np.array([1e-160, 0.0]), np.array([0.0, 1.0]))

    def test_energy_is_minus_infinity(self):
        assert hamiltonian(self.PARAMS, self.X) == -np.inf
        assert chart._radius_energy_radial(self.PARAMS, self.X)[1:] == (-np.inf, 0.0)
        assert chart.in_U_eps(self.PARAMS, self.X) is False

    def test_flow_and_chart_refuse(self):
        with pytest.raises(DomainError, match="not finite"):
            chart.global_flow(self.PARAMS, self.X, 0.1)
        with pytest.raises(DomainError, match="not finite"):
            chart.trajectory(self.PARAMS, self.X, [0.1])
        with pytest.raises(chart.ChartDomainError, match="H=-inf is not finite"):
            chart.chart_forward(self.PARAMS, self.X)


class TestOverflowingMomentum:
    """States whose |p|**2 overflows are outside the chart domain, and the
    domain tests and their callers say so without a RuntimeWarning."""

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("p", [[0.0, 1e155], [-1e155, 1.0]])
    def test_domain_tests_read_false(self, n, p):
        params = ModelParams(n=n, d=2, eps=0.1)
        for q in ([0.05, 0.0], [0.0999, 0.0]):
            x = PhasePoint(np.array(q), np.array(p))
            assert chart.in_U_eps(params, x) is False
            assert chart.on_S_eps(params, x) is False

    @pytest.mark.parametrize("n", [2, 3])
    def test_pericenter_and_closed_form_refuse(self, n):
        params = ModelParams(n=n, d=2, eps=0.1)
        x = PhasePoint(np.array([0.05, 0.0]), np.array([0.0, 1e155]))
        with pytest.raises(chart.ChartDomainError):
            chart.pericenter(params, x)
        with pytest.raises(chart.ChartDomainError if n == 2 else ValueError):
            chart.kepler_time_closed_form(params, x)

    @pytest.mark.parametrize("n", [2, 3])
    def test_transit_time_check_refuses_the_entry_state(self, n):
        params = ModelParams(n=n, d=2, eps=0.1)
        x = PhasePoint(np.array([0.0999, 0.0]), np.array([-1e155, 1.0]))
        with pytest.raises(ValueError, match="outside the chart domain"):
            verify.transit_time_check(params, x)
