"""The covering ODE as an oracle of the chart's radial quadrature.

The tests import these helpers; no library path integrates to a radius.
`radius_event` ends a covering integration where the orbit crosses a
physical radius outward, and `transit_time` carries an inward entry state
through its pericenter, or through the collision, out to the sphere of
radius eps with DOP853: an independent route to what
`verify.transit_time_check` takes by quadrature.  `constraint` is the
covering Hamiltonian K(Q, P) of a `covering.CoveringState`.
"""

from mcgehee import covering as cov, integrate as ode


def radius_event(params, r):
    """Outward crossing of the physical radius r, i.e. |Q|**2 = r**(2/n)."""
    q2 = r ** (2.0 / params.n)
    return ode.EventSpec(g=lambda y: y[0] * y[0] + y[1] * y[1] - q2, direction=ode.INCREASING, name="radius")


def transit_time(params, x_entry, cfg):
    """Physical time of the covering flow from x_entry out to ||q|| = eps."""
    _, y0, E = cov.lift_state(params, x_entry)
    tau_max = cov.tau_bound(params, params.eps ** (1.0 / params.n))
    return float(cov.transit(params, E, y0, tau_max, (radius_event(params, params.eps),), cfg)[4])


def constraint(params, state):
    """K(Q, P); zero along covering trajectories of energy state.E."""
    return abs(state.P) ** 2 / (2.0 * params.m) - state.E * (abs(state.Q) ** 2) ** (params.n - 1) - params.Z
