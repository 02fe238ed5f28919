import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcgehee import covering as cov
from mcgehee import integrate as ode
from mcgehee.model import DomainError, ModelParams, PhasePoint, hamiltonian, physical_field, radius, radius_rows

from covering_oracle import constraint, radius_event

TIGHT = ode.IntegratorConfig(rel_tol=1e-12, abs_tol=1e-13)


def physical_trajectory(params, x0, t_span, cfg=TIGHT):
    return ode.integrate(physical_field(params), np.concatenate([x0.q, x0.p]), t_span, cfg)


class TestPlaneReduction:
    def test_roundtrip(self):
        x = PhasePoint(np.array([0.3, -0.1, 0.2]), np.array([1.0, 2.0, -0.5]))
        frame, qc, pc = cov.plane_reduce(x)
        back = cov.plane_embed(frame, qc, pc)
        assert np.allclose(back.q, x.q, atol=1e-14)
        assert np.allclose(back.p, x.p, atol=1e-14)

    def test_qc_real_positive(self):
        x = PhasePoint(np.array([0.3, -0.1, 0.2]), np.array([1.0, 2.0, -0.5]))
        _, qc, _ = cov.plane_reduce(x)
        assert qc.imag == pytest.approx(0.0, abs=1e-15)
        assert qc.real == pytest.approx(x.r)

    def test_collinear_states_get_deterministic_frame(self):
        x = PhasePoint(np.array([0.5, 0.0]), np.array([-2.0, 0.0]))
        frame, qc, pc = cov.plane_reduce(x)
        assert np.array_equal(frame.e2, cov._completion(frame.e1))
        assert np.isfinite(frame.e2).all()
        assert abs(np.dot(frame.e1, frame.e2)) < 1e-14
        assert pc.imag == 0.0
        # repeatable
        frame2, _, _ = cov.plane_reduce(x)
        assert np.array_equal(frame.e2, frame2.e2)

    @pytest.mark.parametrize("lean", [6e-9, 1e-15, 1e-150])
    def test_nearly_radial_keeps_its_plane(self, lean):
        # only a p whose part across q squares to 0 takes the completion
        # frame; any larger part spans the plane and carries l
        x = PhasePoint(np.array([0.05, 0.0]), np.array([-6.0, lean]))
        frame, qc, pc = cov.plane_reduce(x)
        assert np.array_equal(frame.e2, [0.0, 1.0])
        assert qc == 0.05 and pc.imag == lean
        flipped, _, _ = cov.plane_reduce(PhasePoint(x.q, np.array([-6.0, -lean])))
        assert np.array_equal(flipped.e2, [0.0, -1.0])

    def test_generic_state_not_collinear(self):
        x = PhasePoint(np.array([0.05, 0.0]), np.array([-6.0, 1.0]))
        frame, _, pc = cov.plane_reduce(x)
        assert np.array_equal(frame.e2, [0.0, 1.0]) and pc == complex(-6.0, 1.0)


    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_frame_is_orthonormal_near_collision_orbits(self, d):
        # one projection of p against e1 leaves <e1, e2> of about
        # 4e-16 / sin(angle(q, p)); the second pass leaves rounding alone
        rng = np.random.default_rng(60 + d)
        ulp = np.spacing(1.0)
        for sin in (1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8):
            for _ in range(50):
                u = rng.normal(size=d)
                u /= np.linalg.norm(u)
                w = rng.normal(size=d)
                w -= np.dot(w, u) * u
                w /= np.linalg.norm(w)
                v = rng.choice([-1.0, 1.0]) * np.sqrt(1.0 - sin * sin) * u + sin * w
                q, p = rng.uniform(0.01, 1.0) * u, rng.uniform(0.1, 100.0) * v
                e1, e2, _, _ = cov.plane_reduce_rows(q[None], p[None])
                assert abs(np.dot(e1[0], e2[0])) <= 4.0 * ulp
                assert abs(np.linalg.norm(e2[0]) - 1.0) <= 4.0 * ulp


    @given(
        d=st.integers(2, 5),
        log_sin=st.floats(-14.0, -6.0),
        collinear=st.booleans(),
        axes=st.booleans(),
        sign=st.sampled_from([-1.0, 1.0]),
        seed=st.integers(0, 2**16),
    )
    @settings(derandomize=True, max_examples=400, deadline=None)
    def test_one_state_is_the_rows_to_the_bit(self, d, log_sin, collinear, axes, sign, seed):
        # the float body of `plane_reduce` against its rows twin: nearly and
        # exactly collinear states, and states on the axes, whose dot
        # products have signed zeros
        rng = np.random.default_rng(seed)
        if axes:
            u, w = np.zeros(d), np.zeros(d)
            u[rng.integers(d)], w[rng.integers(d)] = sign, rng.choice([-1.0, 1.0])
        else:
            u = rng.normal(size=d)
            u /= np.linalg.norm(u)
            w = rng.normal(size=d)
            w -= np.dot(w, u) * u
            w /= np.linalg.norm(w)
        sin = 0.0 if collinear else 10.0**log_sin
        q = rng.uniform(0.01, 1.0) * u
        p = rng.uniform(0.1, 100.0) * (sign * np.sqrt(1.0 - sin * sin) * u + sin * w)
        frame, qc, pc = cov.plane_reduce(PhasePoint(q, p))
        e1, e2, QC, PC = cov.plane_reduce_rows(q[None], p[None])
        assert type(qc) is complex and type(pc) is complex
        assert frame.e1.tobytes() == e1[0].tobytes() and frame.e2.tobytes() == e2[0].tobytes()
        assert np.complex128(qc).tobytes() == QC[0].tobytes() and np.complex128(pc).tobytes() == PC[0].tobytes()

    def test_q_zero_raises(self):
        with pytest.raises(DomainError):
            cov.plane_reduce(PhasePoint(np.zeros(3), np.array([1.0, 0.0, 0.0])))

    @pytest.mark.parametrize("d", [2, 3])
    def test_subnormal_q_squared_keeps_every_digit(self, d):
        # <q,q> below the smallest normal float: sqrt(<q,q>) read |q| =
        # 1e-160 as 9.99994e-161, and 0 at 1e-170.  Scaling q by 2**k, p
        # fixed, scales r exactly and keeps e1, e2 and pc, to the bit
        rng = np.random.default_rng(d)
        for scale in (1e-160, 1e-170, 1e-300):
            for q in (np.eye(d)[0], rng.normal(size=d)):
                q = q / np.linalg.norm(q)
                p = rng.normal(size=d)
                k = -int(np.log2(scale))
                big, tiny = PhasePoint(q, p), PhasePoint(np.ldexp(q, -k), p)
                (F, QC, PC), (f, qc, pc) = cov.plane_reduce(big), cov.plane_reduce(tiny)
                assert f.e1.tobytes() == F.e1.tobytes() and f.e2.tobytes() == F.e2.tobytes() and pc == PC
                r = radius(tiny.q, np.dot(tiny.q, tiny.q))
                assert r == np.ldexp(radius(q, np.dot(q, q)), -k) > 0.0
                assert abs(qc.real - r) <= 1e-15 * r and abs(QC.real - 1.0) <= 1e-15
                e1, e2, qc_rows, pc_rows = cov.plane_reduce_rows(np.stack([q, tiny.q]), np.stack([p, p]))
                assert e1[1].tobytes() == f.e1.tobytes() and e2[1].tobytes() == f.e2.tobytes()
                assert np.complex128(qc).tobytes() == qc_rows[1].tobytes() and np.complex128(pc).tobytes() == pc_rows[1].tobytes()
                assert radius_rows(tiny.q[None], np.dot(tiny.q, tiny.q)[None])[0] == r

    @pytest.mark.parametrize(
        "q, p",
        [((0.03, -0.04), (0.3e-160, 0.7e-160)), ((1.0, 0.0, 0.0), (0.0, 0.0, 1e-170))],
        ids=["subnormal", "zero"],
    )
    def test_orthogonal_part_squaring_below_the_normals(self, q, p):
        # <p_perp, p_perp> is subnormal (|e2| - 1 read 3.8e-4) or 0 (the
        # completion frame stood in and the state re-embedded with p = 0):
        # p_perp is scaled by a power of two first, so e2 is a unit vector
        # orthogonal to e1, the rows give the same bits, and q and p come back
        x = PhasePoint(np.array(q), np.array(p))
        frame, qc, pc = cov.plane_reduce(x)
        e1, e2, qc_rows, pc_rows = cov.plane_reduce_rows(x.q[None], x.p[None])
        assert abs(np.linalg.norm(frame.e2) - 1.0) < 1e-15 and abs(np.dot(frame.e1, frame.e2)) < 1e-15
        assert e1[0].tobytes() == frame.e1.tobytes() and e2[0].tobytes() == frame.e2.tobytes()
        assert np.complex128(qc).tobytes() == qc_rows[0].tobytes() and np.complex128(pc).tobytes() == pc_rows[0].tobytes()
        back = cov.plane_embed(frame, qc, pc)
        assert np.abs(back.q - x.q).max() <= 1e-15 * x.r and np.abs(back.p - x.p).max() <= 1e-15 * np.linalg.norm(x.p)


class TestLiftProject:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_lift_project_roundtrip(self, n):
        params = ModelParams(n=n, d=2)
        qc, pc = 0.05 + 0.0j, complex(-3.0, 2.0)
        for branch in range(n):
            Q, P = cov.lift(params, qc, pc, branch)
            qc2, pc2 = cov.project(params, Q, P)
            assert abs(qc2 - qc) < 1e-14
            assert abs(pc2 - pc) < 1e-12 * abs(pc)

    def test_branches_are_distinct_preimages(self):
        params = ModelParams(n=3, d=2)
        Qs = {cov.lift(params, 0.05 + 0.0j, 1.0 + 0.0j, b)[0] for b in range(3)}
        assert len(Qs) == 3

    def test_lift_at_branch_point_rejected(self):
        params = ModelParams(n=2, d=2)
        with pytest.raises(DomainError):
            cov.lift(params, 0.0j, 1.0 + 0.0j)

    def test_project_at_branch_point_rejected(self):
        # Q = 0 is the collision: qc = 0, and for n >= 2 pc = P conj(Q)**(1-n) is undefined
        with pytest.raises(DomainError, match="branch point"):
            cov.project(ModelParams(n=2, d=2), 0.0j, 1.0 + 0.0j)
        assert cov.project(ModelParams(n=1, d=2), 0.0j, 1.0 + 0.0j) == (0.0j, 1.0 + 0.0j)

    def test_constraint_vanishes_on_energy_shell(self):
        params = ModelParams(n=3, d=2)
        x = PhasePoint(np.array([0.05, 0.01]), np.array([-6.0, 8.0]))
        frame, qc, pc = cov.plane_reduce(x)
        Q, P = cov.lift(params, qc, pc)
        E = hamiltonian(params, x)
        state = cov.CoveringState(Q=Q, P=P, t_phys=0.0, E=E)
        assert constraint(params, state) == pytest.approx(0.0, abs=1e-10)


class TestTransitChunks:
    """`transit` continues a chunk that ends without an event with twice the
    budget, 60 times at most, and a failed step is a Hill-region error."""

    @staticmethod
    def ending(reason, budgets):
        def integrate_covering(params, E, y0, span, cfg, events=()):
            budgets.append(span[1])
            return ode.Trajectory(ts=np.array([0.0, span[1]]), ys=np.array([y0, y0]), reason=reason)

        return integrate_covering

    def test_budget_doubles_until_it_gives_up(self, monkeypatch):
        budgets = []
        monkeypatch.setattr(cov, "integrate_covering", self.ending(ode.REASON_TIME_LIMIT, budgets))
        with pytest.raises(RuntimeError, match="did not reach any of its events"):
            cov.transit(ModelParams(n=2, d=2), -0.5, np.zeros(5), -1.0, (), None)
        assert budgets == [-(2.0**k) for k in range(60)]

    def test_step_failure_is_a_hill_region_error(self, monkeypatch):
        monkeypatch.setattr(cov, "integrate_covering", self.ending(ode.REASON_STEP_FAILURE, []))
        with pytest.raises(cov.HillRegionError):
            cov.transit(ModelParams(n=2, d=2), -0.5, np.zeros(5), 1.0, (), None)


class TestCoveringFlow:
    def test_retimed_covering_matches_physical_flow(self):
        # the C_N calibration oracle: integrate the same Kepler arc in
        # covering time and in physical time and compare pointwise
        params = ModelParams(n=2, d=2, eps=0.5)
        x0 = PhasePoint(np.array([0.3, 0.05]), np.array([-2.5, 1.5]))
        E = hamiltonian(params, x0)
        frame, qc, pc = cov.plane_reduce(x0)
        Q0, P0 = cov.lift(params, qc, pc)
        traj = cov.integrate_covering(
            params, E, cov.covering_state_y(Q0, P0), (0.0, 0.2), TIGHT
        )
        phys = physical_trajectory(params, x0, (0.0, float(traj.ys[-1][4]) + 0.01))
        for y in traj.ys[1::3]:
            state = cov.y_to_state(y, E)
            qc_t, pc_t = cov.project(params, state.Q, state.P)
            x_cov = cov.plane_embed(frame, qc_t, pc_t)
            y_phys = phys(state.t_phys)
            assert np.allclose(x_cov.q, y_phys[:2], atol=1e-8)
            assert np.allclose(x_cov.p, y_phys[2:], atol=1e-8)

    def test_free_case_covering_is_straight_line(self):
        params = ModelParams(n=1, d=2)
        field = cov.covering_field(params, E=0.3)
        rates = field(0.0, np.array([0.1, 0.2, 1.0, -2.0, 0.0]))
        assert rates[2] == 0.0 and rates[3] == 0.0
        assert rates[4] == 1.0  # physical time runs at unit rate

    def test_constraint_conserved_along_flow(self):
        params = ModelParams(n=3, d=2, eps=0.2)
        x0 = PhasePoint(np.array([0.05, 0.02]), np.array([-7.0, 9.0]))
        E = hamiltonian(params, x0)
        frame, qc, pc = cov.plane_reduce(x0)
        Q0, P0 = cov.lift(params, qc, pc)
        traj = cov.integrate_covering(
            params, E, cov.covering_state_y(Q0, P0), (0.0, 0.5), TIGHT
        )
        for y in traj.ys:
            state = cov.y_to_state(y, E)
            assert abs(constraint(params, state)) < 1e-10

    def test_energy_preserved_through_projection(self):
        params = ModelParams(n=2, d=2, eps=0.2)
        x0 = PhasePoint(np.array([0.08, 0.0]), np.array([-4.0, 2.0]))
        E = hamiltonian(params, x0)
        frame, qc, pc = cov.plane_reduce(x0)
        Q0, P0 = cov.lift(params, qc, pc)
        traj = cov.integrate_covering(
            params, E, cov.covering_state_y(Q0, P0), (0.0, 0.05), TIGHT
        )
        state = cov.y_to_state(traj.ys[-1], E)
        qc_t, pc_t = cov.project(params, state.Q, state.P)
        x_t = cov.plane_embed(frame, qc_t, pc_t)
        assert hamiltonian(params, x_t) == pytest.approx(E, abs=1e-9)


def through_collision(params, x_in, backward=False):
    """Carry a collision-course state through q = 0 and back out to ||q_in||.

    Returns the outgoing state and the elapsed physical time.  The side
    rule (same ray for n even, antipodal for n odd) must emerge from the
    covering flow; nothing is flipped by hand.
    """
    frame, y0, E = cov.lift_state(params, x_in)
    tau_max = cov.tau_bound(params, abs(complex(y0[0], y0[1])))
    y1 = cov.transit(
        params, E, y0, -tau_max if backward else tau_max,
        (radius_event(params, x_in.r),), None,
    )
    qc, pc = cov.project(params, complex(y1[0], y1[1]), complex(y1[2], y1[3]))
    return cov.plane_embed(frame, qc, pc), abs(float(y1[4]))


class TestCollisionTransit:
    def test_kepler_bounce_returns_on_same_ray(self):
        params = ModelParams(n=2, d=2, eps=0.1)
        x_in = PhasePoint(np.array([0.05, 0.0]), np.array([-6.0, 0.0]))
        x_out, dt = through_collision(params, x_in)
        assert dt > 0.0
        assert x_out.r == pytest.approx(x_in.r, abs=1e-10)
        # even n: the particle bounces back along the incoming ray
        assert np.dot(x_out.q, x_in.q) > 0.0
        assert np.dot(x_out.p, x_in.p) < 0.0
        assert hamiltonian(params, x_out) == pytest.approx(
            hamiltonian(params, x_in), abs=1e-8
        )

    def test_odd_n_passes_through_to_antipode(self):
        params = ModelParams(n=3, d=2, eps=0.1)
        x_in = PhasePoint(np.array([0.05, 0.0]), np.array([-6.0, 0.0]))
        x_out, dt = through_collision(params, x_in)
        assert np.dot(x_out.q, x_in.q) < 0.0  # antipodal exit ray
        assert hamiltonian(params, x_out) == pytest.approx(
            hamiltonian(params, x_in), abs=1e-8
        )

    def test_transit_time_below_uniform_bound(self):
        for n in (2, 3, 4):
            params = ModelParams(n=n, d=2, eps=0.1)
            x_in = PhasePoint(np.array([0.1 * (1 - 1e-12), 0.0]), np.array([-6.0, 0.0]))
            _, dt = through_collision(params, x_in)
            bound = 2.0 * params.eps ** (2.0 - 1.0 / n) * np.sqrt(n * params.m / params.Z)
            assert dt <= bound

    def test_backward_direction(self):
        params = ModelParams(n=2, d=2, eps=0.1)
        # moving outward: a collision lies in the past
        x = PhasePoint(np.array([0.05, 0.0]), np.array([6.0, 0.0]))
        x_past, dt = through_collision(params, x, backward=True)
        assert dt > 0.0
        assert x_past.r == pytest.approx(x.r, abs=1e-10)
