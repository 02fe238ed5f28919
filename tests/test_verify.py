import functools

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
    vector_field,
)


class TestPoissonBracket:
    def test_canonical_pair_convention(self):
        params = ModelParams(n=2, d=2, eps=0.1)
        x = PhasePoint(np.array([0.05, 0.01]), np.array([-6.0, 2.0]))
        f = lambda xp: float(xp.p[0])
        g = lambda xp: float(xp.q[0])
        assert verify.poisson_bracket(f, g, x) == pytest.approx(1.0, abs=1e-10)
        assert verify.poisson_bracket(g, f, x) == pytest.approx(-1.0, abs=1e-10)

    def test_hamiltonian_generates_time(self):
        params = ModelParams(n=2, d=2, eps=0.1)
        x = PhasePoint(np.array([0.05, 0.01]), np.array([-6.0, 2.0]))
        H = lambda xp: hamiltonian(params, xp)
        T = lambda xp: chart.chart_forward(params, xp).T
        assert verify.poisson_bracket(H, T, x) == pytest.approx(1.0, abs=1e-6)

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
            val = verify.poisson_bracket(f, g, x, h_fraction=h)
            errs.append(abs(val - exact))
        assert errs[1] < errs[0] / 8.0
        assert errs[2] < errs[1] / 8.0


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
            pb = verify.poisson_bracket(named(fa), named(fb), x)
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

        def field(t, y):
            dq, dp = vector_field(params, PhasePoint(y[:2], y[2:]))
            return np.concatenate([dq, dp])

        traj = ode.integrate(field, [1.0, 0.0, 0.1, 0.9], (0.0, 30.0))
        rep = verify.conservation_report(params, traj)
        assert rep.max_drift() < 1e-8

    def test_free_motion_conserves_momentum(self):
        params = ModelParams(n=1, d=2)

        def field(t, y):
            dq, dp = vector_field(params, PhasePoint(y[:2], y[2:]))
            return np.concatenate([dq, dp])

        traj = ode.integrate(field, [1.0, 0.5, 0.3, -0.2], (0.0, 10.0))
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
