import numpy as np
import pytest
from scipy.integrate import solve_ivp

from mcgehee import chart, covering as cov, integrate as ode
from mcgehee.model import ModelParams, PhasePoint, physical_field

from covering_oracle import radius_event


def harmonic(t, y):
    return (y[1], -y[0])


TIGHT = ode.IntegratorConfig(rel_tol=1e-12, abs_tol=1e-13)


class TestBasicIntegration:
    def test_harmonic_oscillator_period(self):
        traj = ode.integrate(harmonic, [1.0, 0.0], (0.0, 2.0 * np.pi), TIGHT)
        assert traj.reason == ode.REASON_TIME_LIMIT
        assert np.allclose(traj.ys[-1], [1.0, 0.0], atol=1e-9)

    def test_zero_field_constant(self):
        traj = ode.integrate(lambda t, y: np.zeros(3), [1.0, 2.0, 3.0], (0.0, 5.0))
        assert np.allclose(traj.ys[-1], [1.0, 2.0, 3.0], atol=1e-13)

    def test_empty_span_single_node(self):
        traj = ode.integrate(harmonic, [1.0, 0.0], (0.0, 0.0))
        assert len(traj.ts) == 1
        assert traj(0.0) == pytest.approx([1.0, 0.0])

    def test_backward_integration(self):
        fwd = ode.integrate(harmonic, [1.0, 0.0], (0.0, 1.0), TIGHT)
        back = ode.integrate(harmonic, fwd.ys[-1], (1.0, 0.0), TIGHT)
        assert np.allclose(back.ys[-1], [1.0, 0.0], atol=1e-10)

    def test_dense_output_matches_nodes(self):
        traj = ode.integrate(harmonic, [1.0, 0.0], (0.0, 3.0), TIGHT)
        for t, y in zip(traj.ts, traj.ys):
            assert np.allclose(traj(float(t)), y, atol=1e-12)

    def test_dense_output_accuracy_between_nodes(self):
        traj = ode.integrate(harmonic, [1.0, 0.0], (0.0, 3.0), TIGHT)
        for t in np.linspace(0.1, 2.9, 17):
            assert np.allclose(traj(t), [np.cos(t), -np.sin(t)], atol=1e-9)

    def test_step_failure_recorded_not_raised(self):
        # y' = y^2 blows up at t = 1; the driver must record the failure
        traj = ode.integrate(lambda t, y: (y[0] ** 2,), [1.0], (0.0, 2.0))
        assert traj.reason == ode.REASON_STEP_FAILURE
        assert traj.t_end < 2.0


class TestEvents:
    def test_terminal_event_localised(self):
        ev = ode.EventSpec(g=lambda y: y[0], direction=ode.DECREASING, name="x-axis")
        traj = ode.integrate(harmonic, [1.0, 0.0], (0.0, 10.0), TIGHT, events=(ev,))
        assert traj.reason == ode.REASON_EVENT
        assert traj.event_index == 0
        assert traj.t_end == pytest.approx(np.pi / 2.0, abs=1e-10)

    def test_direction_filter(self):
        # increasing crossings of y[0] happen at 3pi/2 first
        ev = ode.EventSpec(g=lambda y: y[0], direction=ode.INCREASING)
        traj = ode.integrate(harmonic, [1.0, 0.0], (0.0, 10.0), TIGHT, events=(ev,))
        assert traj.t_end == pytest.approx(3.0 * np.pi / 2.0, abs=1e-9)

    def test_event_on_start_does_not_retrigger(self):
        # start exactly on the surface moving off it; must run to the next
        # genuine crossing, not stop at t = 0
        ev = ode.EventSpec(g=lambda y: y[0], direction=ode.ANY)
        traj = ode.integrate(harmonic, [0.0, 1.0], (0.0, 10.0), TIGHT, events=(ev,))
        assert traj.reason == ode.REASON_EVENT
        assert traj.t_end == pytest.approx(np.pi, abs=1e-9)

    def test_no_event_runs_to_time_limit(self):
        ev = ode.EventSpec(g=lambda y: y[0] - 5.0)
        traj = ode.integrate(harmonic, [1.0, 0.0], (0.0, 4.0), TIGHT, events=(ev,))
        assert traj.reason == ode.REASON_TIME_LIMIT


class TestConfig:
    def test_invalid_tolerances_rejected(self):
        with pytest.raises(ValueError):
            ode.IntegratorConfig(rel_tol=0.0)
        with pytest.raises(ValueError):
            ode.IntegratorConfig(abs_tol=-1.0)


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def entry_transit(n: int):
    """A covering transit of U^eps from its sphere, inward, to the exit
    event, as criterion 5 measures it: its params, energy, start, span,
    event and the run."""
    params = ModelParams(n=n, d=2, eps=0.1)
    x = PhasePoint(np.array([0.1, 0.0]), np.array([-3.0, 0.4]))
    _, y0, E = cov.lift_state(params, x)
    span = (0.0, cov.tau_bound(params, params.eps ** (1.0 / n)))
    event = radius_event(params, params.eps)
    traj = cov.integrate_covering(params, E, y0, span, chart._TIGHT, events=(event,))
    return params, E, y0, span, event, traj


class TestLazyDenseOutput:
    """Each step's dense output, against scipy's solve_ivp at the same
    tolerances, bit for bit."""

    @staticmethod
    def reference(field, y0, span, **kwargs):
        cfg = chart._TIGHT
        return solve_ivp(field, span, y0, method="DOP853", rtol=cfg.rel_tol, atol=cfg.abs_tol,
                         dense_output=True, **kwargs)

    def test_physical_orbit_matches_solve_ivp(self):
        params = ModelParams(n=3, d=2)
        field, y0, span = physical_field(params), np.array([0.3, 0.1, 0.2, 0.9]), (0.0, 3.0)
        traj = ode.integrate(field, y0, span, chart._TIGHT)
        ref = self.reference(field, y0, span)
        assert len(traj.ts) > 20
        assert same_bits(traj.ts, ref.t) and same_bits(traj.ys, ref.y.T)
        # off the nodes, where the two pick the same step
        ts = [t for t in np.linspace(*span, 997) if t not in traj.ts]
        assert len(ts) >= 995
        assert same_bits([traj(t) for t in ts], [ref.sol(t) for t in ts])

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_event_ended_transit_matches_solve_ivp_before_the_event_step(self, n):
        params, E, y0, span, event, traj = entry_transit(n)
        assert traj.reason == ode.REASON_EVENT

        def g(t, y):
            return event.g(y)

        g.terminal, g.direction = True, 1
        ref = self.reference(cov.covering_field(params, E), y0, span, events=g)
        # the same steps up to the event, which each localises its own way
        assert same_bits(traj.ts[:-1], ref.t[:-1]) and same_bits(traj.ys[:-1], ref.y.T[:-1])
        ts = np.linspace(traj.ts[0], traj.ts[-2], 499)[1:-1]
        ts = [t for t in ts if t not in traj.ts]
        assert same_bits([traj(t) for t in ts], [ref.sol(t) for t in ts])
