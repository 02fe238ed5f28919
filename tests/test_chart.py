import numpy as np
import pytest
from scipy.integrate import quad

from mcgehee import chart, covering as cov, verify
from mcgehee.model import (
    ModelParams,
    PhasePoint,
    hamiltonian,
    l_squared_point,
)
from mcgehee.verify import sample_domain_points

GRID = [(n, d) for n in (1, 2, 3, 4) for d in (2, 3)]


def time_scale(params):
    """sqrt(m/Z) eps**(1 + alpha/2): the time a transit of U^eps takes."""
    return np.sqrt(params.m / params.Z) * params.eps ** (1.0 + 0.5 * params.alpha)


def oracle_chart(params, x):
    """Independent oracles for (T, A) and the error allowed in A.

    n = 1 is free motion: A = -p/|p|, T = m <q,p> / |p|**2.  For n = 2, A is
    the classical Kepler vector.  Otherwise A, and T for n >= 2, come from
    the covering-ODE pericenter search.  Its state carries rounding of
    relative size 1e-16 into the pericenter angle, which near a collision
    orbit is a difference of order sin(angle(q, p)), so its A is only good
    to about 1e-16 / sin.
    """
    if params.n == 1:
        return params.m * x.radial / np.dot(x.p, x.p), -x.p / np.linalg.norm(x.p), 1e-10
    res = chart.pericenter(params, x)
    if params.n == 2:
        q, p = x.q, x.p
        A = q * np.dot(p, p) - p * np.dot(q, p) - params.m * params.Z * q / x.r
        return res.T, A / np.linalg.norm(A), 1e-10
    A = res.frame.to_vector(chart._lrl_complex(params, res.P0))
    _, qc, pc = cov.plane_reduce(x)
    sin = (qc.conjugate() * pc).imag / (x.r * np.linalg.norm(x.p))
    return res.T, A / np.linalg.norm(A), 1e-10 + (5e-16 / sin if sin > 0.0 else np.inf)


def ode_inverse(params, c):
    """Independent oracle: rebuild the pericenter state from (H, |B|, A, B)
    and flow it by T with the covering ODE, then the global flow."""
    n = params.n
    ell = float(np.linalg.norm(c.B))
    on_q_axis, s = chart._pericenter_axis(n)
    B_hat = c.B / ell
    e1, e2 = (s * c.A, s * B_hat) if on_q_axis else (-s * B_hat, s * c.A)
    q_mag = chart.r_min(params, c.H, ell * ell) ** (1.0 / n)
    P_mag = np.sqrt(2.0 * params.m * (params.Z + c.H * q_mag ** (2 * (n - 1))))
    y0 = cov.covering_state_y(complex(q_mag), 1j * P_mag)
    frame = cov.PlaneFrame(e1=e1, e2=e2)
    state, used = chart._covering_segment(params, frame, y0, c.H, c.T, chart._TIGHT)
    return chart.global_flow(params, state, c.T - used)


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
            T, A, a_tol = oracle_chart(params, x)
            assert abs(c.T - T) <= 1e-10 * tau
            assert np.max(np.abs(c.A - A)) <= a_tol
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
            for y in (x, oracle.x):
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
        # the collision orbit flowed by the covering ODE from the glued point
        params = ModelParams(n=n, d=d, eps=0.1)
        for c in self.cases(params, np.random.default_rng(400 + 10 * n + d)):
            back = chart.chart_inverse(params, c).x
            flowed = chart.global_flow(params, chart.Collision(h=c.H, a=c.A), c.T).x
            assert np.linalg.norm(back.q - flowed.q) <= 1e-7 * back.r
            assert np.linalg.norm(back.p - flowed.p) <= 1e-7 * np.linalg.norm(back.p)

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
            # n = 1 moves on a straight line at constant speed, so its energy
            # is exact up to rounding; n >= 2 carries the integration error
            # of the hand-off to the physical flow
            tol = 1e-12 if n == 1 else 1e-10
            assert hamiltonian(params, out.x) == pytest.approx(h, abs=tol)

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
