"""Planar reduction and the n-fold branched covering q = Q**n.

Motion is confined to an invariant plane (or line), which the chart and
`global_flow` take from `plane_reduce`.  The covering ODE is the independent
route through collisions of the oracles: `chart.pericenter` and the tests.
A planar state is lifted through (q, p) = (Q**n, P * conj(Q)**(1-n)) and
integrated in a rescaled time tau for the polynomial Hamiltonian

    K(Q, P) = |P|**2 / (2 m) - E |Q|**(2(n-1)) - Z,

which is smooth at Q = 0, so collision states are traversed analytically.
Physical time is recovered from the appended quadrature
dt/dtau = c_n * |Q|**(2(n-1)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import integrate as ode
from .model import (
    DomainError,
    ModelParams,
    PhasePoint,
    hamiltonian,
    row_dot,
)

# Rescaled-time normalisation for the K-flow taken with the n-scaled
# symplectic structure of the covering (dQ/dtau = P/(n m)).  Calibrated
# against direct physical integration of a Kepler transit in
# tests/test_covering.py::test_retimed_covering_matches_physical_flow,
# which pins C_N = 1.0 to 1e-8; any other value shifts the recovered
# physical time linearly and fails that oracle.
C_N = 1.0


class HillRegionError(RuntimeError):
    """E < 0 state outside the lifted Hill region: the K-flow is inconsistent."""


@dataclass(frozen=True)
class PlaneFrame:
    """Orthonormal pair (e1, e2) spanning the invariant plane of motion."""

    e1: np.ndarray
    e2: np.ndarray

    def to_complex(self, v: np.ndarray) -> complex:
        return complex(np.dot(v, self.e1), np.dot(v, self.e2))

    def to_vector(self, z: complex) -> np.ndarray:
        return z.real * self.e1 + z.imag * self.e2


@dataclass(frozen=True)
class CoveringState:
    """Covering coordinates (Q, P) with accumulated physical time."""

    Q: complex
    P: complex
    t_phys: float
    E: float


def _completion(e1: np.ndarray) -> np.ndarray:
    """Deterministic unit vector orthogonal to e1 (collinear states)."""
    k = int(np.argmin(np.abs(e1)))
    e2 = np.zeros_like(e1)
    e2[k] = 1.0
    e2 -= np.dot(e2, e1) * e1
    return e2 / np.linalg.norm(e2)


def plane_reduce_rows(q: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """`plane_reduce` of stacked (k, d) positions and momenta.

    Returns the (k, d) frame vectors e1 = q/||q|| and e2 and the (k,)
    complex qc and pc, each row bit for bit as `plane_reduce` gives it.  e2
    is the unit part of p orthogonal to q from the explicit projection, not
    the Lagrange identity, whose cancellation swamps a small angle between q
    and p.  p is projected twice: one pass leaves a part along e1 of
    relative size 1e-16 / sin of that angle, the second rounding alone.
    Only a row whose orthogonal part squares to 0 (is 0, or below about
    1e-162) takes the completion frame.
    """
    r = np.sqrt(row_dot(q, q))
    if (r == 0.0).any():
        raise DomainError("q = 0 is outside the unregularised phase space")
    e1 = q / r[:, None]
    p_perp = p - row_dot(p, e1)[:, None] * e1
    p_perp = p_perp - row_dot(p_perp, e1)[:, None] * e1
    perp2 = row_dot(p_perp, p_perp)
    collinear = perp2 == 0.0
    e2 = p_perp / np.sqrt(np.where(collinear, 1.0, perp2))[:, None]
    for i in np.flatnonzero(collinear):
        e2[i] = _completion(e1[i])
    qc = row_dot(q, e1) + 1j * row_dot(q, e2)
    pc = row_dot(p, e1) + 1j * row_dot(p, e2)
    return e1, e2, qc, pc


def plane_reduce(x: PhasePoint) -> tuple[PlaneFrame, complex, complex]:
    """Reduce to the invariant plane; qc comes out real and positive.

    e1 = q/||q||; e2 = unit component of p orthogonal to q, or a
    deterministic completion when q and p are collinear.  The steps of
    `plane_reduce_rows` on one state, bit for bit: np.dot of the 1-d
    vectors takes the dot kernel of `row_dot`, and qc and pc are built as
    the rows' x + 1j*y rounds them: 0 + y and x + 0*y, which change a
    finite dot product in nothing (it sums from +0, so it is never -0)
    and make the real part NaN where y is infinite.
    """
    q, p = x.q, x.p
    r = math.sqrt(np.dot(q, q))
    if r == 0.0:
        raise DomainError("q = 0 is outside the unregularised phase space")
    e1 = q / r
    p_perp = p - np.dot(p, e1) * e1
    p_perp = p_perp - np.dot(p_perp, e1) * e1
    perp2 = float(np.dot(p_perp, p_perp))
    e2 = _completion(e1) if perp2 == 0.0 else p_perp / math.sqrt(perp2)
    return PlaneFrame(e1=e1, e2=e2), _in_plane(q, e1, e2), _in_plane(p, e1, e2)


def _in_plane(v: np.ndarray, e1: np.ndarray, e2: np.ndarray) -> complex:
    """<v, e1> + i <v, e2>, rounded as the rows' x + 1j*y rounds it."""
    x, y = float(np.dot(v, e1)), float(np.dot(v, e2))
    return complex(x + 0.0 * y, 0.0 + y)


def plane_embed(frame: PlaneFrame, qc: complex, pc: complex) -> PhasePoint:
    return PhasePoint(q=frame.to_vector(qc), p=frame.to_vector(pc))


def lift(
    params: ModelParams, qc: complex, pc: complex, branch: int = 0
) -> tuple[complex, complex]:
    """Branch-th preimage under the covering: Q**n = qc, P = pc * conj(Q)**(n-1)."""
    if qc == 0:
        raise DomainError("lift undefined at qc = 0 (branch point)")
    n = params.n
    root = abs(qc) ** (1.0 / n) * np.exp(1j * (np.angle(qc) / n + 2.0 * np.pi * (branch % n) / n))
    Q = complex(root)
    P = pc * Q.conjugate() ** (n - 1)
    return Q, P


def project(params: ModelParams, Q: complex, P: complex) -> tuple[complex, complex]:
    """(qc, pc) = (Q**n, P * conj(Q)**(1-n)); momentum undefined at Q = 0."""
    n = params.n
    qc = Q**n
    if Q == 0 and n > 1:
        raise DomainError("projected momentum undefined at the branch point Q = 0")
    pc = P * Q.conjugate() ** (1 - n)
    return qc, pc


def covering_field(params: ModelParams, E: float):
    """Vector field of the extended flow on (Q1, Q2, P1, P2, t_phys).

    Polynomial in the state, finite at Q = 0; dt_phys/dtau vanishes at the
    branch point, so collision is crossed at finite tau with zero
    instantaneous physical-time rate.  At n = 1 it is the free flow: coef = 0
    and q2**0 = 1.
    """
    n = params.n
    m = params.m
    coef = 2.0 * (n - 1) / n * E

    def field(tau, y):
        Q1, Q2, P1, P2, _ = y
        q2 = Q1 * Q1 + Q2 * Q2
        f = coef * q2 ** (n - 2) if n > 2 else coef
        return (
            P1 / (n * m),
            P2 / (n * m),
            f * Q1,
            f * Q2,
            C_N * q2 ** (n - 1),
        )

    return field


def covering_state_y(Q: complex, P: complex, t_phys: float = 0.0) -> np.ndarray:
    return np.array([Q.real, Q.imag, P.real, P.imag, t_phys])


def y_to_state(y: np.ndarray, E: float) -> CoveringState:
    return CoveringState(
        Q=complex(y[0], y[1]), P=complex(y[2], y[3]), t_phys=float(y[4]), E=E
    )


def tau_bound(params: ModelParams, Q_scale: float, slack: float = 25.0) -> float:
    """Generous rescaled-time budget for one transit across |Q| <= Q_scale.

    |dQ/dtau| = |P|/(n m) with |P|**2 > 2 m (1 - 1/(2n)) Z on the lifted
    chart domain, so the crossing takes bounded tau.
    """
    v_min = np.sqrt(2.0 * params.m * (1.0 - 0.5 / params.n) * params.Z) / (
        params.n * params.m
    )
    return slack * max(Q_scale, 1e-30) / v_min


def integrate_covering(
    params: ModelParams,
    E: float,
    y0: np.ndarray,
    tau_span: tuple[float, float],
    cfg: ode.IntegratorConfig | None = None,
    events: tuple[ode.EventSpec, ...] = (),
) -> ode.Trajectory:
    field = covering_field(params, E)
    return ode.integrate(field, y0, tau_span, cfg, events=events)


def lift_state(params: ModelParams, x: PhasePoint) -> tuple[PlaneFrame, np.ndarray, float]:
    """Plane frame, branch-0 covering state vector (t_phys = 0) and energy of x."""
    frame, qc, pc = plane_reduce(x)
    Q, P = lift(params, qc, pc, 0)
    return frame, covering_state_y(Q, P), hamiltonian(params, x)


def transit(
    params: ModelParams,
    E: float,
    y0: np.ndarray,
    tau_max: float,
    events: tuple[ode.EventSpec, ...],
    cfg: ode.IntegratorConfig | None,
) -> np.ndarray:
    """Flow the covering state y0 until the first of `events` fires.

    tau_max is the signed rescaled-time budget of the first chunk; a chunk
    that ends without an event is continued with twice the budget, so bound
    orbits that stay near the origin for a long physical time still end.
    Returns the end state (Q1, Q2, P1, P2, t_phys).
    """
    for _ in range(60):
        traj = integrate_covering(params, E, y0, (0.0, tau_max), cfg, events=events)
        if traj.reason == ode.REASON_EVENT:
            return traj.ys[-1]
        if traj.reason == ode.REASON_STEP_FAILURE:
            raise HillRegionError("covering integration failed (Hill-region inconsistency?)")
        y0 = traj.ys[-1]
        tau_max *= 2.0
    raise RuntimeError("covering transit did not reach any of its events")
