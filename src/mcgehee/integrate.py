"""Adaptive ODE integration with dense output and terminal events.

A thin adapter over scipy's `solve_ivp` with the DOP853 method (8th-order
embedded pair with 7th-order dense output, read through scipy's
`OdeSolution`).  It supports backward time spans, records the reason
integration stopped, and caps the work of a runaway integration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.integrate import DOP853, OdeSolution, solve_ivp
from scipy.optimize import brentq  # noqa: F401  unused (solve_ivp has its own); bench/tracing.py rebinds it

REASON_TIME_LIMIT = "time-limit"
REASON_EVENT = "event"
REASON_STEP_FAILURE = "step-failure"

# event directions, as solve_ivp encodes them
INCREASING = 1
DECREASING = -1
ANY = 0


# runaway guard: an integration taking more steps than this is a step failure
MAX_STEPS = 1_000_000


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-10

    def __post_init__(self) -> None:
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True)
class EventSpec:
    """Terminal surface crossing g(state) = 0 watched during integration."""

    g: Callable[[np.ndarray], float]
    direction: int = ANY  # INCREASING | DECREASING | ANY
    name: str = ""


@dataclass
class Trajectory:
    """Dense solution of an ODE: nodes, scipy's `OdeSolution`, stop reason."""

    ts: np.ndarray
    ys: np.ndarray  # shape (len(ts), dim)
    sol: Optional[OdeSolution] = field(repr=False, default=None)
    reason: str = REASON_TIME_LIMIT
    event_index: Optional[int] = None

    @property
    def t0(self) -> float:
        return float(self.ts[0])

    @property
    def t_end(self) -> float:
        return float(self.ts[-1])

    def __call__(self, t: float) -> np.ndarray:
        """Evaluate the dense output at time t within the covered span."""
        if self.sol is None:
            return self.ys[0].copy()
        return self.sol(t)


def integrate(
    field_fn: Callable[[float, np.ndarray], Sequence[float]],
    x0: Sequence[float],
    t_span: tuple[float, float],
    cfg: IntegratorConfig | None = None,
    events: Sequence[EventSpec] = (),
) -> Trajectory:
    """Integrate dx/dt = field_fn(t, x) over t_span (forward or backward).

    Any event in `events` is terminal: the trajectory ends at the first
    crossing in its direction, as `solve_ivp` finds it.  A g that is 0 at
    the start counts as a crossing, so such an event ends the run there.
    Step failure, and a run past MAX_STEPS steps' worth of field
    evaluations, are recorded in the trajectory's `reason`, never raised.
    """
    cfg = cfg or IntegratorConfig()
    t0, t1 = float(t_span[0]), float(t_span[1])
    y0 = np.asarray(x0, dtype=float)
    if t1 == t0:
        return Trajectory(ts=np.array([t0]), ys=y0[np.newaxis, :].copy())

    # 12 stages per step and 3 for its interpolant; past the budget the
    # field reads NaN, every step is rejected and the solver fails
    budget = [15 * MAX_STEPS]

    def counted(t, y):
        budget[0] -= 1
        return field_fn(t, y) if budget[0] >= 0 else np.full_like(y, np.nan)

    def terminal(ev: EventSpec):
        def g(t, y):
            return ev.g(y)

        g.terminal, g.direction = True, ev.direction
        return g

    res = solve_ivp(counted, (t0, t1), y0, method=DOP853, rtol=cfg.rel_tol, atol=cfg.abs_tol,
                    dense_output=True, events=[terminal(ev) for ev in events] or None)
    fired = [i for i, te in enumerate(res.t_events or ()) if len(te)]
    return Trajectory(
        ts=res.t,
        ys=res.y.T,
        sol=res.sol if res.sol.n_segments else None,
        reason={0: REASON_TIME_LIMIT, 1: REASON_EVENT}.get(res.status, REASON_STEP_FAILURE),
        event_index=fired[0] if fired else None,
    )
