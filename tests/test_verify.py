import functools
import math

import numpy as np
import pytest

from mcgehee import chart, verify
from mcgehee import integrate as ode
from mcgehee.model import (
    ModelParams,
    PhasePoint,
    angular_momentum,
    hamiltonian,
    l_squared,
    physical_field,
)

from bracket_oracle import poisson_bracket
from covering_oracle import transit_time


class TestPoissonBracket:
    def test_canonical_pair_convention(self):
        params = ModelParams(n=2, d=2, eps=0.1)
        x = PhasePoint(np.array([0.05, 0.01]), np.array([-6.0, 2.0]))
        f = lambda xp: float(xp.p[0])
        g = lambda xp: float(xp.q[0])
        assert poisson_bracket(f, g, x) == pytest.approx(1.0, abs=1e-10)
        assert poisson_bracket(g, f, x) == pytest.approx(-1.0, abs=1e-10)

    def test_hamiltonian_generates_time(self):
        params = ModelParams(n=2, d=2, eps=0.1)
        x = PhasePoint(np.array([0.05, 0.01]), np.array([-6.0, 2.0]))
        H = lambda xp: hamiltonian(params, xp)
        T = lambda xp: chart.chart_forward(params, xp).T
        assert poisson_bracket(H, T, x) == pytest.approx(1.0, abs=1e-6)

    def test_fourth_order_convergence(self):
        # truncation error of the h-stencil must drop by >= 8x per halving
        # until the roundoff floor; use smooth analytic functions
        x = PhasePoint(np.array([0.7, 0.2]), np.array([0.4, -0.3]))
        f = lambda xp: float(np.cos(2.0 * xp.p[0]) * np.sin(xp.q[1]))
        g = lambda xp: float(np.cos(3.0 * xp.q[0]))
        # only the (p_1, q_1) derivative pair survives:
        # {f,g} = (df/dp_1)(dg/dq_1)
        exact = (-2.0 * np.sin(0.8) * np.sin(0.2)) * (-3.0 * np.sin(2.1))
        errs = []
        for h in (0.2, 0.1, 0.05):
            val = poisson_bracket(f, g, x, h_fraction=h)
            errs.append(abs(val - exact))
        assert errs[1] < errs[0] / 8.0
        assert errs[2] < errs[1] / 8.0


def loop_gradient(f, z, h):
    """Reference gradient: the same stencil and Richardson step, one point
    and one coordinate at a time."""
    cols = []
    for i in range(len(z)):

        def stencil(step):
            vals = []
            for c in (-2.0, -1.0, 1.0, 2.0):
                zp = z.copy()
                zp[i] += c * step
                vals.append(f(zp))
            return (vals[0] - 8.0 * vals[1] + 8.0 * vals[2] - vals[3]) / (12.0 * step)

        cols.append((16.0 * stencil(0.5 * h[i]) - stencil(h[i])) / 15.0)
    return np.stack(cols, axis=-1)


def loop_bracket(f, g, x):
    d = len(x.q)
    z = np.concatenate([x.q, x.p])
    h = verify.DEFAULT_STEP_FRACTION * verify._coordinate_scales(z, d)
    point = lambda zz: PhasePoint(zz[:d], zz[d:])
    J = loop_gradient(lambda zz: np.array([f(point(zz)), g(point(zz))]), z, h)
    return float(verify._brackets(J, d)[0, 1])


class TestBatchedGradient:
    def test_one_call_on_the_stencil_and_the_point(self):
        z = np.array([0.3, -0.2, 0.5, 1.1])
        h = np.array([1e-3, 2e-3, 3e-3, 4e-3])
        calls = []

        def f(rows):
            calls.append(rows.shape)
            return np.column_stack([np.sin(rows[:, 0]) * rows[:, 3], rows[:, 1] ** 3])

        J, at_z = verify._gradient(f, z, h)
        assert calls == [(8 * len(z) + 1, len(z))]
        assert np.array_equal(at_z, f(z[None])[0])
        exact = np.array([[np.cos(0.3) * 1.1, 0.0, 0.0, np.sin(0.3)], [0.0, 3 * 0.04, 0.0, 0.0]])
        assert np.max(np.abs(J - exact)) < 1e-10

    @pytest.mark.parametrize("n,d", [(2, 2), (3, 3), (4, 2)])
    def test_poisson_bracket_unchanged(self, n, d):
        params = ModelParams(n=n, d=d, eps=0.1)
        T = lambda xp: chart.chart_forward(params, xp).T
        H = lambda xp: hamiltonian(params, xp)
        A0 = lambda xp: chart.chart_forward(params, xp).A[0]
        B1 = lambda xp: chart.chart_forward(params, xp).B[1]
        x = verify.sample_domain_points(params, np.random.default_rng(n + d), 1)[0]
        for f, g in ((H, T), (A0, B1)):
            assert poisson_bracket(f, g, x) == pytest.approx(
                loop_bracket(f, g, x), abs=1e-12
            )

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_dirac_bracket_unchanged(self, d):
        rng = np.random.default_rng(40 + d)
        for _ in range(3):
            q = rng.normal(size=d)
            q /= np.linalg.norm(q)
            p = rng.normal(size=d)
            p -= np.dot(p, q) * q
            rep = verify.dirac_bracket_check(PhasePoint(q, p))
            z = np.concatenate([q, p])
            h = verify.DEFAULT_STEP_FRACTION * verify._coordinate_scales(z, d)
            fns = lambda zz: np.concatenate(
                [zz, [np.dot(zz[:d], zz[:d]) - 1.0, np.dot(zz[:d], zz[d:])]]
            )
            M = verify._brackets(loop_gradient(fns, z, h), d)
            c = M[2 * d, 2 * d + 1]
            D = M + (np.outer(M[:, 2 * d], M[2 * d + 1]) - np.outer(M[:, 2 * d + 1], M[2 * d])) / c
            assert rep.c_measured == pytest.approx(c, abs=1e-12)
            label = [f"{v}_{i}" for v in "qp" for i in range(d)]
            for e in rep.entries:
                a, b = (label.index(name) for name in e.names)
                assert e.computed == pytest.approx(D[a, b], abs=1e-12)


class TestBracketTable:
    def test_kepler_point_full_table(self):
        params = ModelParams(n=2, d=3, eps=0.1)
        rng = np.random.default_rng(0)
        x = verify.sample_domain_points(params, rng, 1)[0]
        rep = verify.bracket_table(params, x)
        assert rep.max_residual < 1e-5
        # measured family signs under the {H,T} = +1 convention
        assert rep.ab_sign == -1.0
        assert rep.bb_sign == -1.0

    def test_n3_point(self):
        params = ModelParams(n=3, d=2, eps=0.1)
        rng = np.random.default_rng(1)
        x = verify.sample_domain_points(params, rng, 1)[0]
        rep = verify.bracket_table(params, x)
        assert rep.max_residual < 1e-5

    def test_d2_aa_vanishes(self):
        params = ModelParams(n=2, d=2, eps=0.1)
        rng = np.random.default_rng(2)
        x = verify.sample_domain_points(params, rng, 1)[0]
        rep = verify.bracket_table(params, x)
        aa = [e for e in rep.entries if e.names == ("A_0", "A_1")]
        assert len(aa) == 1
        assert aa[0].residual < 1e-6

    def test_report_lists_all_pairs(self):
        params = ModelParams(n=2, d=2, eps=0.1)
        rng = np.random.default_rng(3)
        x = verify.sample_domain_points(params, rng, 1)[0]
        rep = verify.bracket_table(params, x)
        names = {e.names for e in rep.entries}
        assert ("H", "T") in names
        assert ("A_0", "B_1") in names
        assert ("B_0", "B_1") in names


class TestBracketTableLayout:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("d", [2, 3])
    def test_every_row_is_the_bracket_of_its_named_pair(self, n, d):
        # rows that expect the same value (0 for most pairs) would pass
        # max_residual even if swapped; recompute each row from its two names
        params = ModelParams(n=n, d=d, eps=0.1)
        x, y = verify.sample_domain_points(params, np.random.default_rng(10 * n + d), 2)
        rep = verify.bracket_table(params, x)
        assert verify.bracket_table(params, y).names is rep.names  # one tuple per d

        @functools.cache
        def chart_at(key: bytes):
            z = np.frombuffer(key)
            return chart.chart_forward(params, PhasePoint(z[:d], z[d:]))

        def named(name):
            c = lambda xp: chart_at(np.concatenate([xp.q, xp.p]).tobytes())
            if name in ("T", "H"):
                return lambda xp: getattr(c(xp), name)
            family, idx = name.split("_")
            if family == "L":
                i, j = int(idx[0]), int(idx[1])
                return lambda xp: xp.q[j] * xp.p[i] - xp.q[i] * xp.p[j]
            return lambda xp: getattr(c(xp), family)[int(idx)]

        assert len(set(rep.names)) == len(rep.names)
        for (fa, fb), computed in zip(rep.names, rep.computed):
            pb = poisson_bracket(named(fa), named(fb), x)
            assert computed == pytest.approx(pb, abs=1e-12), (fa, fb)


class TestDiracBracket:
    def test_axis_point_example(self):
        x = PhasePoint(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))
        rep = verify.dirac_bracket_check(x)
        assert rep.max_residual < 1e-6
        assert rep.c_measured == pytest.approx(-2.0, abs=1e-8)
        # {q_1, p_1}_Dirac = +-(1 - q_1 q_1) = 0 at this point
        e = next(e for e in rep.entries if e.names == ("q_0", "p_0"))
        assert e.computed == pytest.approx(0.0, abs=1e-8)
        # {p_1, p_2}_Dirac = q_1 p_2 - q_2 p_1 = 1
        e = next(e for e in rep.entries if e.names == ("p_0", "p_1"))
        assert e.computed == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_random_sphere_points(self, d):
        rng = np.random.default_rng(d)
        q = rng.normal(size=d)
        q /= np.linalg.norm(q)
        p = rng.normal(size=d)
        p -= np.dot(p, q) * q
        rep = verify.dirac_bracket_check(PhasePoint(q, p))
        assert rep.max_residual < 1e-6
        assert rep.qp_sign == -1.0  # same global sign as the (A, B) table

    def test_off_constraint_rejected(self):
        x = PhasePoint(np.array([1.1, 0.0]), np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            verify.dirac_bracket_check(x)


class TestKeplerLRLIdentity:
    def test_vvt_l_anticommutator(self):
        # V V^T L + L V V^T = ||V||^2 L for the classical LRL vector;
        # the analytic identity behind the {A_i, A_j} = 0 entries at n = 2
        params = ModelParams(n=2, d=3)
        rng = np.random.default_rng(11)
        for _ in range(20):
            q = rng.normal(size=3)
            p = rng.normal(size=3)
            x = PhasePoint(q, p)
            L = angular_momentum(x).matrix
            V = (
                q * np.dot(p, p)
                - p * np.dot(q, p)
                - params.m * params.Z * q / np.linalg.norm(q)
            )
            VVt = np.outer(V, V)
            lhs = VVt @ L + L @ VVt
            rhs = np.dot(V, V) * L
            scale = max(1.0, np.linalg.norm(rhs))
            assert np.allclose(lhs, rhs, atol=1e-12 * scale)


class TestConservation:
    def test_elliptic_orbit_drifts(self):
        params = ModelParams(n=2, d=2)
        x0 = PhasePoint(np.array([1.0, 0.0]), np.array([0.1, 0.9]))

        traj = ode.integrate(physical_field(params), [1.0, 0.0, 0.1, 0.9], (0.0, 30.0))
        rep = verify.conservation_report(params, traj)
        assert rep.max_drift() < 1e-8

    def test_free_motion_conserves_momentum(self):
        params = ModelParams(n=1, d=2)

        traj = ode.integrate(physical_field(params), [1.0, 0.5, 0.3, -0.2], (0.0, 10.0))
        assert np.allclose(traj.ys[-1][2:], [0.3, -0.2], atol=1e-13)
        assert verify.conservation_report(params, traj).max_drift() < 1e-10


class TestTransitBound:
    def test_radial_kepler_drop(self):
        params = ModelParams(n=2, d=2, m=1.0, Z=1.0, eps=0.1)
        x = PhasePoint(np.array([0.1 * (1 - 1e-12), 0.0]), np.array([-5.0, 0.0]))
        check = verify.transit_time_check(params, x)
        assert check.ok
        assert check.bound == pytest.approx(2.0 * 0.1**1.5 * np.sqrt(2.0))
        assert check.measured > 0.0

    def test_n3_collision_transit(self):
        params = ModelParams(n=3, d=2, eps=0.1)
        x = PhasePoint(np.array([0.1 * (1 - 1e-12), 0.0]), np.array([-7.0, 0.0]))
        check = verify.transit_time_check(params, x)
        assert check.ok
        assert check.bound == pytest.approx(2.0 * 0.1 ** (5.0 / 3.0) * np.sqrt(3.0))

    def test_pericenter_passage_within_bound(self):
        params = ModelParams(n=2, d=2, eps=0.1)
        x = PhasePoint(np.array([0.1 * (1 - 1e-12), 0.0]), np.array([-5.0, 2.0]))
        check = verify.transit_time_check(params, x)
        assert check.ok

    def test_mass_factor_in_bound(self):
        params = ModelParams(n=2, d=2, m=4.0, Z=1.0, eps=0.1)
        assert verify.transit_bound(params) == pytest.approx(
            2.0 * 0.1**1.5 * np.sqrt(2.0 * 4.0)
        )

    def test_outgoing_state_rejected(self):
        params = ModelParams(n=2, d=2, eps=0.1)
        x = PhasePoint(np.array([0.1, 0.0]), np.array([5.0, 0.0]))
        with pytest.raises(ValueError):
            verify.transit_time_check(params, x)


def entry_state(params, rng, cos, kinetic):
    """Inward state at r = eps (1 - 1e-12) along a random unit u, its momentum
    at an angle of cosine `cos` to u and its kinetic energy `kinetic` times
    the chart domain's floor there."""
    r = params.eps * (1.0 - 1e-12)
    u = rng.normal(size=params.d)
    u /= np.linalg.norm(u)
    w = rng.normal(size=params.d)
    w -= np.dot(w, u) * u
    w /= np.linalg.norm(w)
    v = -u if cos == -1.0 else cos * u + math.sqrt(1.0 - cos * cos) * w
    floor = 2.0 * params.m * (1.0 - 0.5 / params.n) * params.Z * r ** (-params.alpha)
    return PhasePoint(r * u, math.sqrt(kinetic * floor) * v)


class TestTransitQuadrature:
    """`transit_time_check` measures T(u_in) + T(u_out) on the chart's radial
    quadrature; closed forms and the covering ODE check it."""

    ORACLE = ode.IntegratorConfig(rel_tol=3e-14, abs_tol=1e-16)

    @pytest.mark.parametrize("d", [2, 3])
    def test_n1_is_the_chord(self, d):
        """Free motion: m (sqrt(eps**2 - b**2) + sqrt(r**2 - b**2)) / |p| with
        b the impact parameter, where sqrt(r**2 - b**2) = |<q,p>| / |p| and
        eps**2 - b**2 = (eps - r)(eps + r) + <q,p>**2 / |p|**2."""
        params = ModelParams(n=1, d=d, m=1.7, Z=0.6, eps=0.1)
        rng = np.random.default_rng(d)
        for cos in (-1.0, -0.9, -0.5, -0.2):
            for kinetic in (1.01, 3.0, 1e4):
                x = entry_state(params, rng, cos, kinetic)
                speed = np.linalg.norm(x.p)
                inner = -x.radial / speed
                eps, r = params.eps, x.r
                chord = params.m * (math.sqrt((eps - r) * (eps + r) + inner * inner) + inner) / speed
                assert verify.transit_time_check(params, x).measured == pytest.approx(chord, rel=1e-14, abs=0)

    @pytest.mark.parametrize("m", [1.0, 0.3])
    def test_n2_radial_is_the_closed_form(self, m):
        """Out from the collision to r on a radial Kepler orbit of energy
        E > 0: [sqrt(r (r + a)) - a asinh(sqrt(r / a))] / sqrt(2E/m), a = Z/E."""
        params = ModelParams(n=2, d=3, m=m, Z=1.3, eps=0.1)
        rng = np.random.default_rng(2)
        for factor in (1.0, 4.0, 1e3):  # E = factor Z/r, so a is about eps / factor
            x = entry_state(params, rng, -1.0, (1.0 + factor) / 0.75)  # the floor is 1.5 m Z/r
            r, E = x.r, hamiltonian(params, x)
            assert E == pytest.approx(factor * params.Z / r)
            a = params.Z / E

            def out_to(rho):
                return (math.sqrt(rho * (rho + a)) - a * math.asinh(math.sqrt(rho / a))) / math.sqrt(2.0 * E / m)

            expected = out_to(r) + out_to(params.eps)
            assert verify.transit_time_check(params, x).measured == pytest.approx(expected, rel=1e-13, abs=0)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_the_covering_ode(self, n, d):
        """DOP853 through the pericenter or the collision, out to the sphere:
        collision orbits (cos = -1), l near 0, and entries out to 1.15 degrees
        from the tangent.  Nearer the tangent the transit's depth eps - r_min
        is a small difference, and any float route to it loses about
        1e-16 / cos**2 of the transit time."""
        params = ModelParams(n=n, d=d, m=1.5, Z=0.7, eps=0.1)
        rng = np.random.default_rng([n, d])
        for cos in (-1.0, -0.999999, -0.5, -0.05, -0.02):
            for kinetic in (1.0001, 4.0, 100.0):
                x = entry_state(params, rng, cos, kinetic)
                expected = transit_time(params, x, self.ORACLE)
                assert verify.transit_time_check(params, x).measured == pytest.approx(expected, rel=1e-11, abs=0)

    def test_integrates_no_ode(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an ODE was integrated")

        monkeypatch.setattr(ode, "integrate", refuse)
        for n in (1, 2, 3):
            params = ModelParams(n=n, d=2, eps=0.1)
            check = verify.transit_time_check(params, entry_state(params, np.random.default_rng(n), -0.5, 2.0))
            assert check.ok and check.measured > 0.0

    def test_orbit_turning_back_inside_the_sphere_is_rejected(self):
        """From r = eps/10 inward at E = -24 (the chart domain needs E > -25
        there) the radial Kepler orbit turns back at r = Z/|E| = eps/2.4."""
        params = ModelParams(n=2, d=2, eps=0.1)
        r, E = 0.01, -24.0
        x = PhasePoint(np.array([r, 0.0]), np.array([-math.sqrt(2.0 * (E + 1.0 / r)), 0.0]))
        assert hamiltonian(params, x) == pytest.approx(E)
        with pytest.raises(ValueError, match="turns back"):
            verify.transit_time_check(params, x)


class TestAsymptoticParity:
    @pytest.mark.parametrize("n,expected", [(2, 1.0), (3, -1.0), (4, 1.0)])
    def test_parity(self, n, expected):
        params = ModelParams(n=n, d=2, eps=0.1)
        l2 = 0.25
        rp = chart.r_min(params, 0.0, l2)
        p_mag = np.sqrt(2.0 * params.m * params.Z * rp ** (-params.alpha))
        x0 = PhasePoint(np.array([rp, 0.0]), np.array([0.0, p_mag]))
        um, up = verify.asymptotic_direction_pair(params, x0)
        assert np.dot(um, up) == pytest.approx(expected, abs=1e-6)

    def test_nonzero_energy_rejected(self):
        params = ModelParams(n=2, d=2, eps=0.1)
        x = PhasePoint(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            verify.asymptotic_direction_pair(params, x)


class TestSampler:
    def test_samples_lie_in_domain_with_margin(self):
        rng = np.random.default_rng(4)
        for n in (1, 2, 3, 4):
            params = ModelParams(n=n, d=3, eps=0.1)
            for x in verify.sample_domain_points(params, rng, 10):
                assert chart.in_U_eps(params, x)
                assert 0.2 * params.eps < x.r < 0.9 * params.eps

    def test_deterministic_for_fixed_seed(self):
        params = ModelParams(n=2, d=2, eps=0.1)
        a = verify.sample_domain_points(params, np.random.default_rng(9), 3)
        b = verify.sample_domain_points(params, np.random.default_rng(9), 3)
        for x, y in zip(a, b):
            assert np.array_equal(x.q, y.q) and np.array_equal(x.p, y.p)
