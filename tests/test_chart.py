import numpy as np
import pytest
from scipy.integrate import quad

from mcgehee import chart
from mcgehee.model import (
    ModelParams,
    PhasePoint,
    hamiltonian,
    l_squared_point,
)
from mcgehee.verify import sample_domain_points


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

    def test_matches_numerical_pericenter_time(self):
        params = ModelParams(n=2, d=3, eps=0.1)
        rng = np.random.default_rng(5)
        for x in sample_domain_points(params, rng, 5):
            res = chart.pericenter(params, x)
            assert res.T == pytest.approx(
                chart.kepler_time_closed_form(params, x), abs=1e-10
            )


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
