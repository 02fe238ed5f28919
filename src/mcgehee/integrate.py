"""Adaptive ODE integration with dense output and event localisation.

Thin driver around scipy's DOP853 stepper (8th-order embedded pair with
7th-order dense output).  Supports backward time spans, records the reason
integration stopped, and localises surface crossings on the dense
interpolant by bracketed root finding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.integrate import DOP853
from scipy.optimize import brentq

REASON_TIME_LIMIT = "time-limit"
REASON_EVENT = "event"
REASON_STEP_FAILURE = "step-failure"

INCREASING = "increasing"
DECREASING = "decreasing"
ANY = "any"


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
    direction: str = ANY  # INCREASING | DECREASING | ANY
    name: str = ""


@dataclass
class Trajectory:
    """Dense solution of an ODE: nodes, per-step interpolants, stop reason."""

    ts: np.ndarray
    ys: np.ndarray  # shape (len(ts), dim)
    interpolants: list = field(repr=False, default_factory=list)
    reason: str = REASON_TIME_LIMIT
    event_index: Optional[int] = None

    @property
    def t0(self) -> float:
        return float(self.ts[0])

    @property
    def t_end(self) -> float:
        return float(self.ts[-1])

    @property
    def forward(self) -> bool:
        return self.t_end >= self.t0

    def _segment(self, t: float) -> int:
        ts = self.ts
        if self.forward:
            i = int(np.searchsorted(ts, t, side="right")) - 1
        else:
            i = int(np.searchsorted(-ts, -t, side="right")) - 1
        return min(max(i, 0), len(self.interpolants) - 1)

    def __call__(self, t: float) -> np.ndarray:
        """Evaluate the dense interpolant at time t within the covered span."""
        if not self.interpolants:
            return self.ys[0].copy()
        return np.asarray(self.interpolants[self._segment(t)](t), dtype=float)


def integrate(
    field_fn: Callable[[float, np.ndarray], Sequence[float]],
    x0: Sequence[float],
    t_span: tuple[float, float],
    cfg: IntegratorConfig | None = None,
    events: Sequence[EventSpec] = (),
) -> Trajectory:
    """Integrate dx/dt = field_fn(t, x) over t_span (forward or backward).

    Any event in `events` is terminal: the trajectory is cut at the first
    matching crossing, localised on the dense output.  Step failure is
    recorded in the trajectory's `reason`, never raised.
    """
    cfg = cfg or IntegratorConfig()
    t0, t1 = float(t_span[0]), float(t_span[1])
    y0 = np.asarray(x0, dtype=float)
    traj = Trajectory(ts=np.array([t0]), ys=y0[np.newaxis, :].copy())
    if t1 == t0:
        return traj

    solver = DOP853(field_fn, t0, y0, t1, rtol=cfg.rel_tol, atol=cfg.abs_tol)
    ts = [t0]
    ys = [y0.copy()]
    interps: list = []
    g_prev = [ev.g(y0) for ev in events]
    nsteps = 0
    while solver.status == "running":
        if nsteps >= MAX_STEPS:
            traj.reason = REASON_STEP_FAILURE
            break
        solver.step()
        nsteps += 1
        if solver.status == "failed":
            traj.reason = REASON_STEP_FAILURE
            break
        interp = solver.dense_output()
        interps.append(interp)
        ts.append(solver.t)
        ys.append(solver.y.copy())
        hit = _check_events(events, g_prev, solver.y, interp, ts[-2], solver.t)
        if hit is not None:
            idx, t_ev, y_ev = hit
            ts[-1] = t_ev
            ys[-1] = y_ev
            traj.reason = REASON_EVENT
            traj.event_index = idx
            break

    traj.ts = np.array(ts)
    traj.ys = np.array(ys)
    traj.interpolants = interps
    return traj


def _direction_ok(direction: str, g_lo: float, g_hi: float) -> bool:
    if direction == ANY:
        return True
    if direction == INCREASING:
        return g_hi > g_lo
    if direction == DECREASING:
        return g_hi < g_lo
    raise ValueError(f"unknown event direction {direction!r}")


def _check_events(events, g_prev, y_new, interp, t_lo, t_hi):
    """First matching sign change on [t_lo, t_hi]; updates g_prev in place."""
    best = None
    for i, ev in enumerate(events):
        g_new = ev.g(y_new)
        g_old = g_prev[i]
        g_prev[i] = g_new
        # strict sign change: a zero at the segment start (e.g. a handoff
        # exactly on the watched surface) must not re-trigger immediately
        if not (g_old * g_new < 0.0) or not _direction_ok(ev.direction, g_old, g_new):
            continue
        t_ev = brentq(
            lambda t: ev.g(np.asarray(interp(t), dtype=float)),
            min(t_lo, t_hi),
            max(t_lo, t_hi),
            xtol=1e-15 * max(1.0, abs(t_hi)),
            rtol=8.881784197001252e-16,
        )
        if best is None or abs(t_ev - t_lo) < abs(best[1] - t_lo):
            best = (i, t_ev, np.asarray(interp(t_ev), dtype=float))
    return best

