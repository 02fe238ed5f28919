"""The regularising chart (T, H; B, A) and the complete global flow.

On the near-collision domain the chart records time since pericenter (T),
energy (H), the unit Laplace-Runge-Lenz direction (A) and B = L A.  All
entries except T are constants of the motion, so in chart coordinates the
flow is the translation T -> T + t.  Collision states are glued in as the
set {(h, a)} = energy x direction, on which (T, B) = (0, 0).

The chart maps and the global flow are ODE-free on every orbit, collision
orbits included: each orbit is a planar central-force orbit, so T and the
angle swept since the pericenter are radial integrals, taken by fixed-node
quadrature in u = sqrt(sigma - s0) (`_RadialOrbit`), in a phase phi between
both turning points (`_BoundOrbit`, E < 0), or in closed form
(`_ZeroEnergyOrbit`, E = 0, for `_sample` alone).  The two quadrature
classes share one interface (phase, step_guess, start, place, state);
each node pass (`_fused`) gives T, its rate, the swept angle and its rate,
and each Newton round of `place` is one pass.
`global_flow` is the translation T -> T + t on every orbit, not only in
U^eps: `_step` guesses the end before any node pass, places the start in
the pass of Newton's first round, advances its time since the pericenter,
modulo the radial period on bound orbits, and solves for the new
coordinate.  `chart_inverse` is that step on `_RadialOrbit` from the
pericenter by T; `chart_forward_rows` (stacked states) and
`chart_forward` (one state, its row bit for bit) place the state on
`_RadialOrbit`, whose pericenter is one Newton root in Python floats per
orbit.  `trajectory` places one start's orbit at many times by `_sample`;
`pericenter` keeps the covering-ODE route to the chart's pericenter as an
independent check.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import logging
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Union

import numpy as np

from . import covering as cov
from . import integrate as ode
from .model import (
    DomainError,
    ModelParams,
    PhasePoint,
    hamiltonian,
    inverse_power,
    kinetic,
    kinetic_rows,
    l_squared_point,
    radius,
    radius_rows,
    row_dot,
)

# |<q,p>| below this fraction of ||q|| ||p|| counts as "on the pericentric
# surface" for the boolean predicate; the chart itself resolves the crossing
# by root finding, not by this tolerance.
PERICENTER_TOL = 1e-9

_TIGHT = ode.IntegratorConfig(rel_tol=1e-12, abs_tol=1e-13)

log = logging.getLogger(__name__)
_records: list[counting] = []  # the open records: while none is, each count costs one check of it


class counting:
    """A record of the work done while it is open (a context manager), which
    changes no output bit: the orbit class of each node pass (`_fused`), the
    orbit class and Newton rounds of each `_step` solve, each `_monotone_newton`
    root's rounds, and `chart_forward_rows`'s rows; nested records see it all."""

    def __enter__(self) -> counting:
        self.passes, self.rounds, self.roots, self.rows = [], [], [], 0
        _records.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _records.remove(self)


class ChartDomainError(DomainError):
    """Point outside the chart domain U^eps."""


class NoPericenterError(ValueError):
    """(E, l2) admits no pericenter: E < 0 with supercritical angular momentum."""


@dataclass(frozen=True)
class ChartPoint:
    T: float
    H: float
    B: np.ndarray
    A: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "B", np.asarray(self.B, dtype=float))
        object.__setattr__(self, "A", np.asarray(self.A, dtype=float))


@dataclass(frozen=True, slots=True)
class Regular:
    x: PhasePoint


@dataclass(frozen=True, slots=True)
class Collision:
    h: float
    a: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", np.asarray(self.a, dtype=float))


ExtendedPoint = Union[Regular, Collision]


@dataclass(frozen=True)
class PericenterResult:
    frame: cov.PlaneFrame
    Q0: complex
    P0: complex
    T: float


def in_U_eps(params: ModelParams, x: PhasePoint) -> bool:
    """||q|| < eps and H > -Z / (2 n ||q||**alpha): the chart domain.

    The energy inequality excludes (too) low circular orbits, which have no
    unique pericenter, while every collision orbit satisfies it.
    """
    r, H, _ = _radius_energy_radial(params, x)  # DomainError at q = 0
    return math.isfinite(H) and bool(_in_domain(params, r, H))


def _in_domain(params: ModelParams, r, H):
    """The test of U^eps on r = ||q|| > 0 and H, elementwise."""
    return (r < params.eps) & (H > -params.Z / (2.0 * params.n * _pow(r, params.alpha)))


def _pow(x, y):
    """x**y rounded as Python's float power rounds it, for arrays too.

    `**` on a float64 array takes a vectorised power that differs from the
    C library's pow in the last bit for a few percent of inputs, so a row
    of an array would not match the same value computed as a float.  A
    float x takes math.pow, the same C pow without numpy's per-call cost,
    unless the power overflows or has no real value; the result is a
    float64 either way.
    """
    if isinstance(x, float):
        try:
            return np.float64(math.pow(x, y))
        except (OverflowError, ValueError):
            pass
    return np.float_power(x, y)


def _ndim(x) -> int:
    """np.ndim, without the array it builds for a Python float."""
    return 0 if isinstance(x, float) else np.ndim(x)


def _size(x) -> int:
    """np.size, without the array it builds for a Python float."""
    return 1 if isinstance(x, float) else np.size(x)


def _item(x) -> float:
    """The Python float of size-1 input."""
    return x if type(x) is float else float(np.asarray(x).item())


def on_S_eps(params: ModelParams, x: PhasePoint) -> bool:
    """In the chart domain and radially at rest: |<q,p>| < PERICENTER_TOL ||q|| ||p||."""
    if not in_U_eps(params, x):
        return False
    return abs(x.radial) < PERICENTER_TOL * x.r * np.linalg.norm(x.p)


def pericenter(params: ModelParams, x: PhasePoint) -> PericenterResult:
    """Locate the unique pericenter (or collision) of the transit through x.

    Lifts to covering coordinates and integrates the extended flow to the
    first crossing of Re(P conj(Q)) = 0, backward when x is past its
    pericenter.  T is the physical time since that crossing, positive iff
    <q, p> > 0.  The chart maps do not use it: it is an independent route
    to what `chart_forward` computes by quadrature.
    """
    if not in_U_eps(params, x):
        raise ChartDomainError("pericenter search requires a point of U^eps")
    frame, y0, E = cov.lift_state(params, x)
    if abs(x.radial) < PERICENTER_TOL * x.r * np.linalg.norm(x.p):
        y1, T = y0, 0.0
    else:
        event = ode.EventSpec(
            g=lambda y: y[0] * y[2] + y[1] * y[3],  # Re(P conj(Q))
            direction=ode.ANY,
            name="pericenter",
        )
        tau_max = cov.tau_bound(params, abs(complex(y0[0], y0[1])))
        y1 = cov.transit(
            params, E, y0, -tau_max if x.radial > 0.0 else tau_max, (event,), _TIGHT
        )
        T = -float(y1[4])
    return PericenterResult(frame, complex(y1[0], y1[1]), complex(y1[2], y1[3]), T)


def _lrl_complex(params: ModelParams, P0: complex) -> complex:
    """Chart LRL value in the plane's complex coordinate.

    -P0**n rather than P0**n: the sign makes the n = 2 direction agree with
    the classical Kepler vector -(Z q/|q| + i p L), which points toward the
    pericenter.  The value is invariant under the covering transformations
    (multiplication by n-th roots of unity) either way.
    """
    return -np.power(P0, params.n)


# ---------------------------------------------------------------------------
# radial quadrature
# ---------------------------------------------------------------------------

# Gauss-Legendre rule on [0, 1] for the chart's radial integrals.  Their
# integrands are analytic in the node variable and G >= Z/2 keeps them away
# from any singularity, so the rule converges geometrically.
CHART_NODES = 32
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(CHART_NODES)
_NODES = 0.5 * (_NODES + 1.0)
_WEIGHTS = 0.5 * _WEIGHTS
# the nodes and 1: the end of [0, x] itself, where T's integrand is dT/dx / K
_NODES_AND_END = np.append(_NODES, 1.0)
# the 8-node Gauss-Legendre rule on [0, 1] of `_RadialOrbit.step_guess`, as
# (node, weight) floats; its Newton stops after a step below _RULE_RTOL |U|,
# which leaves an error below round-off, or gives up after _RULE_ROUNDS
_RULE = tuple((0.5 * (float(x) + 1.0), 0.5 * float(w)) for x, w in zip(*np.polynomial.legendre.leggauss(8)))
_RULE_RTOL = 1e-8
_RULE_ROUNDS = 8
# the smallest normal float: a pericenter root's terms below it take `_units`
_TINY = float(np.finfo(float).tiny)


class _RadialOrbit:
    """Radial integrals of a stack of planar orbits in sigma = r**(2/n) = |Q|**2.

    E and l are (k,) arrays, one orbit per row.  A node pass (`_fused`) maps
    a (k,) array of u, one per orbit, or on a one-row orbit a (j,) array of
    u, to one value each; `place` and `state` take one row.  The radicand
    factors exactly at the pericenter s0:

        r**2 p_r**2 = 2m (sigma - s0) G(sigma),   G = G0 + E sigma P(sigma),
        G0 = Z + E s0**(n-1),   P = sum_{k=1}^{n-1} sigma**(k-1) s0**(n-1-k),

    and G >= Z/2 on U^eps.  With sigma = s0 + u**2 v**2, every integral from
    the pericenter out to u = sqrt(sigma - s0) is an integral over v in
    [0, 1] of a smooth function, taken on the fixed nodes: a (k, 32) array.

    For E > 0 the zeros of G nearest the real axis lie near
    u_S exp(+-i pi/(2n-2)), u_S = (Z/E)**(1/(2n-2)), where the kinetic
    energy at infinity overtakes the potential, and one panel much longer
    than their distance from the axis would lose digits.  Beyond
    u_P = 4 sin(pi/(2n-2)) u_S the integrals are summed over the panels
    [0, u_P], [u_P, 2 u_P], [2 u_P, 4 u_P], ..., each far enough from those
    zeros for its 32-node rule; a row with u <= u_P keeps one panel, bit for bit.

    Every node pass is `_fused`, `_BoundOrbit._fused`'s twin, which
    `time` reads without the angle.  One orbit (a `global_flow` step,
    `chart_forward`, `chart_inverse`) finds its constants in Python
    floats, with the rows' bits, and dT/du in them (`_rate_one`) for
    Newton's first guess.  Overflow is decided by the values alone:
    every pass runs under np.errstate, and the far forms replace what came
    out inf or NaN.  A step's Newton guess needs no node pass
    (`step_guess`: an 8-node rule on the step's own interval); one pass
    stacked on the start and the guess places the start and takes the
    first round, and every solve carries the end angle.
    """

    def __init__(self, params: ModelParams, E: np.ndarray, l: np.ndarray) -> None:
        n = self.n = params.n
        self.root2m = np.sqrt(2.0 * params.m)
        self.K = n * params.m / self.root2m
        # where E s0**(n-1) overflows, G0 = l**2/(2m s0), from f(s0) = 0
        if E.shape == (1,):  # one row in Python floats, the root `_sigma_of_l` takes for each row
            e, l1, m, Z = float(E[0]), float(l[0]), params.m, params.Z
            s0 = _sigma_of_l(e, l1, m, Z, n)
            s = [_or_inf(math.pow, s0, j) for j in range(n)]  # the powers of s0
            G0 = Z + e * s[n - 1]
            G0 = G0 if abs(G0) < math.inf else l1 * l1 / (2.0 * m) / s0
            inv_u_P = 0.0 * e if n == 1 else _pow(max(e, 0.0) / Z, 0.5 / (n - 1.0)) / _panel_scale(n)
            if not inv_u_P < math.inf:  # E/Z overflows: the powers apart
                inv_u_P = _pow(e, 0.5 / (n - 1.0)) / _pow(Z, 0.5 / (n - 1.0)) / _panel_scale(n)
            self.s0, self.G0, self._inv_u_P = np.array([s0]), np.array([G0]), np.array([inv_u_P])
            self._s0_powers = s[1:n - 1]  # those in P
            self._floats = (s0, G0, e, float(self.K), self._s0_powers)  # `_rate_one`'s constants
            self._frozen = [b * p for b, p in zip(_frozen_binomials(n), reversed(s))]  # `_start`'s c_j
        else:
            self.s0 = _each(_sigma_of_l, E, l, params.m, params.Z, n)
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                G0 = params.Z + E * _pow(self.s0, n - 1)
                self.G0 = np.where(G0 < np.inf, G0, l * l / (2.0 * params.m) / self.s0)
                # 1/u_P, and 0 where E <= 0 (no zeros of G to keep away from)
                self._inv_u_P = 0.0 * E if n == 1 else _pow(np.maximum(E, 0.0) / params.Z, 0.5 / (n - 1.0)) / _panel_scale(n)
                if not self._inv_u_P.max(initial=0.0) < np.inf:  # E/Z overflows: the powers apart
                    p = 0.5 / (n - 1.0)
                    self._inv_u_P = np.where(self._inv_u_P < np.inf, self._inv_u_P, _pow(E, p) / _pow(params.Z, p) / _panel_scale(n))
                self._s0_powers = [_pow(self.s0[:, None], j + 1) for j in range(n - 2)]  # inf: `_fused`'s y = 0
        # the constants as columns against the nodes, and the angle's sqrt(s0) and l/sqrt(2m)
        self._E, self._s0, self._G0, self._l = E[:, None], self.s0[:, None], self.G0[:, None], l[:, None]
        self._rs0, self._rG0, self._c = np.sqrt(self.s0), np.sqrt(self._G0), l / self.root2m

    def _P(self, sigma: np.ndarray):
        P = 0.0 if self.n == 1 else 1.0
        for c in self._s0_powers:
            P = P * sigma + c
        return P

    def G(self, sigma: np.ndarray, P=None) -> np.ndarray:
        """G on a (k, j) array of sigma, row i on orbit i, from P = `_P`(sigma) if given: G0 for n = 1 (E sigma P = inf 0 = NaN)."""
        P = self._P(sigma) if P is None else P
        return self._G0 + self._E * sigma * P if self.n > 1 else np.broadcast_to(self._G0, np.shape(sigma))

    def _far(self, sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """sigma**(n/2 - 1) and g = sqrt(G / sigma**n) = sqrt(G) / r where G
        or sigma**(n-1) overflows: g**2 = G0 / sigma**n + (E / sigma) S with
        S = P / sigma**(n-2) = sum_j (s0/sigma)**j, as the hypot of
        sqrt(G0) / r and sqrt(E) sqrt(S) / sqrt(sigma), so that neither
        square overflows (E near the float range) or underflows (E / sigma
        below the subnormals) where g itself does not."""
        w, S = self._s0 / sigma, 0.0
        for _ in range(self.n - 1):
            S = S * w + 1.0
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # r beyond the float range, or 0
            g = np.hypot(np.sqrt(self._G0) / _pow(sigma, self.n / 2.0), np.sqrt(self._E) * np.sqrt(S) / np.sqrt(sigma))
        return _pow(sigma, self.n / 2.0 - 1.0), g

    def _nodes(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """sigma on the nodes of every panel out to u and, as the last
        column, at u itself: a (k, 32 P + 1) array, and the (k, P) panel
        widths; a row that needs fewer than P panels ends in panels of
        width 0."""
        ratio = (u * self._inv_u_P).max()
        if not ratio > 1.0:
            return self._s0 + (u[:, None] * _NODES_AND_END) ** 2, u[:, None]
        with np.errstate(divide="ignore"):  # u_P = inf where E <= 0; log2 of u and 1/u_P apart where u/u_P overflows
            u_P = 1.0 / self._inv_u_P
            panels = np.log2(ratio) if ratio < np.inf else (np.log2(u) + np.log2(self._inv_u_P)).max()
        edges = np.minimum(np.ldexp(u_P[:, None], np.arange(int(np.ceil(panels)) + 1)), u[:, None])
        start = np.concatenate((np.zeros((len(u), 1)), edges), axis=1)
        width = np.concatenate((edges, u[:, None]), axis=1) - start
        nodes = start[:, :, None] + width[:, :, None] * _NODES
        return self._s0 + np.concatenate((nodes.reshape(len(u), -1), u[:, None]), axis=1) ** 2, width

    def _fused(self, u: np.ndarray, angle: bool = True) -> tuple[np.ndarray, ...]:
        """T, dT/du, the swept angle and its rate at each u, from one pass
        over `_nodes`, whose last column, u itself, the weights leave out;
        T and dT/du alone without the angle.

        T's integrand is K sigma**(n-1) / sqrt(G), and dT/du is that
        integrand at u itself.  Beyond u_P, where G overflows (the
        integrand would read 0) or sigma**(n-1) does too (NaN), it is
        `_far`'s K sigma**(n/2-1) / g.

        The angle's rate is n l/sqrt(2m) / (sigma sqrt(G)), 0 on a collision
        orbit.  Its integrand splits into 1/(sigma sqrt(G0)), whose integral
        is the arctan term because l**2 = 2m s0 G0, and a remainder carrying
        (G0 - G)/sigma = -E P, scaled by l/sqrt(2m).  Both stay smooth as
        l -> 0, where the sweep tends to n pi/2.  Where the remainder's
        denominator overflows (far out, or a large l), its integrand is
        -1 / (sqrt(G0) (y + sigma + sqrt(y) sqrt(y + sigma))) with
        y = G0 / (E P), which overflows nowhere (y = (G0 / E) / P where E P
        overflows: a huge E).  Where P itself overflows (n >= 5), y = 0 and
        the integrand is -1 / (sqrt(G0) sigma), the exact integrand's limit.
        For E < 0 (y < 0: a chart state of G0 near the float range) it is
        -E P divided by each factor in turn.
        """
        for work in _records:
            work.passes.append(_RadialOrbit)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # the far forms replace what overflows
            sigma, width = self._nodes(u)
            P = self._P(sigma)
            power, rG = sigma ** (self.n - 1), np.sqrt(self.G(sigma, P))
            vals = power / rG
            T, rate = _panel_sum(self.K * width, vals[:, :-1]), self.K * power[:, -1] / rG[:, -1]
            far = not (width.shape[1] == 1 or (T.max() < np.inf and rG.max() < np.inf and rate.max() < np.inf))
            if far:
                far_power, g = self._far(sigma)
                scaled = far_power / g
                T = np.where(np.isfinite(T), _panel_sum(self.K * width, np.where(rG < np.inf, vals, scaled)[:, :-1]),
                             _panel_sum(self.K * width, scaled[:, :-1]))
                rate = np.where((power[:, -1] < np.inf) & (rG[:, -1] < np.inf), rate, self.K * far_power[:, -1] / g[:, -1])
            if not angle:
                return T, rate
            # unsplit, as far out the split's two parts cancel; 0 at the collision (l = sigma = 0)
            angle_rate = self._c / np.maximum(sigma[:, -1], _TINY) / rG[:, -1]
            if far:  # sigma sqrt(G) = sigma**2 far_power g, divided in turn so that nothing underflows early
                angle_rate = np.where(rG[:, -1] < np.inf, angle_rate, self._c / sigma[:, -1] / g[:, -1] / sigma[:, -1] / far_power[:, -1])
            den = rG * self._rG0 * (rG + self._rG0)
            rest = -self._E * P / den
            scale = self._l * width / self.root2m
            swept = _panel_sum(scale, rest[:, :-1])
            if not math.isfinite(float(den.max()) + float(swept.sum())):
                EP = self._E * P
                y = np.where(EP < np.inf, self._G0 / EP, self._G0 / self._E / P)
                scaled = np.where(y >= 0.0, -1.0 / (self._rG0 * (y + sigma + np.sqrt(y) * np.sqrt(y + sigma))),
                                  -(EP / rG / self._rG0) / (rG + self._rG0))
                swept = _panel_sum(scale, np.where((den < np.inf) & np.isfinite(rest), rest, scaled)[:, :-1])
        return T, rate, self.n * (np.arctan2(u, self._rs0) + swept), self.n * angle_rate

    def time(self, u: np.ndarray) -> np.ndarray:
        """Time from the pericenter out to u."""
        return self._fused(u, angle=False)[0]

    def phase(self, sigma, radial) -> np.ndarray:
        """u at sigma = r**(2/n) and <q,p> = radial, one per row:
        |radial| = sqrt(2m G) u, free of cancellation near s0.  Where G
        overflows (E near the float range), u = |radial| / (r sqrt(2m) g)
        with `_far`'s g = sqrt(G) / r."""
        sigma = np.reshape(sigma, (-1, 1))
        with np.errstate(over="ignore"):
            rG = np.sqrt(self.G(sigma))[:, 0]
        u = np.abs(radial) / (self.root2m * rG)
        if rG.max() < np.inf:
            return u
        g = self._far(sigma)[1][:, 0]
        return np.where(rG < np.inf, u, np.abs(radial) / _pow(sigma[:, 0], self.n / 2.0) / (self.root2m * g))

    def state(self, u) -> tuple[float, float]:
        """r and |p_r| = sqrt(2m G) u / r at a float u on a one-row orbit;
        far out, where r |p_r| overflows, from sqrt(G) / r."""
        sigma = self.s0 + u * u
        # r |p_r| beyond the float range takes the far form; r beyond it ends
        # the step with a DomainError
        with np.errstate(over="ignore", invalid="ignore"):
            r = sigma[0] ** (self.n / 2.0)
            rpr = u * self.root2m * np.sqrt(self.G(sigma[:, None])[0, 0])
        return r, rpr / r if rpr < np.inf else u * self.root2m * self._far(sigma[:, None])[1][0, 0]

    def _rate_one(self, u: float) -> float:
        """dT/du = K sigma**(n-1) / sqrt(G) at a float u on a one-row orbit in
        Python floats (n = 1: G is G0), and `_far`'s K sigma**(n/2-1) / g where
        the power or root overflows, as in `_fused`; NaN where the root fails."""
        s0, G0, E, K, powers = self._floats
        if self.n == 1:
            return K / math.sqrt(G0)
        sigma, P = s0 + u * u, 1.0
        for c in powers:
            P = P * sigma + c
        try:
            power, rG = sigma ** (self.n - 1), math.sqrt(G0 + E * sigma * P)
            if power < math.inf and rG < math.inf:
                return K * power / rG
        except OverflowError:  # the power: the far form
            pass
        except (ValueError, ZeroDivisionError):
            return math.nan
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            far_power, g = self._far(np.array([[sigma]]))
            return (K * far_power / g).item()

    def step_guess(self, u0, side0: float, t) -> tuple[float]:
        """Newton's first guess (u,) a time t after a start at u0 (None: the
        pericenter) on side side0 of a one-row orbit, with no node pass:
        u = |U| of the root U of

            int_{U0}^{U} dT/du(|v|) dv = t,   U0 = side0 u0,

        in the signed U = side u; T is odd in U, so the step back by |t|
        from U0 is the step forward from -U0.  Newton starts in its basin
        (`_start`) and takes the integral on 8 Gauss-Legendre nodes of
        `_rate_one`, in Python floats: dT/du is even in U and analytic
        through the pericenter, so on a short step the rule holds T's
        difference to round-off.  It ends after a step below _RULE_RTOL
        |U|; the start is the guess where it has not after _RULE_ROUNDS
        rounds, or reads a rate not in (0, inf)."""
        rate = self._rate_one
        U0, t = 0.0 if u0 is None else side0 * _item(u0), _item(t)
        U0, t = (-U0, -t) if t < 0.0 else (U0, t)
        U = start = self._start(U0, t)
        for _ in range(_RULE_ROUNDS):
            end = rate(U)
            if not 0.0 < end < math.inf:
                break
            h = U - U0
            step = (h * sum([w * rate(U0 + h * x) for x, w in _RULE]) - t) / end
            U -= step
            if abs(step) <= _RULE_RTOL * abs(U):
                return (abs(U),)
        return (abs(start),)

    def _start(self, U0: float, t: float) -> float:
        """`step_guess`'s start for a step by t >= 0 from U0: near the root
        of T with G frozen at G0,

            T_m(U) = K / sqrt(G0) sum_j c_j U**(2j+1),   c_j = C(n-1, j) s0**(n-1-j) / (2j+1),

        from T_m(U) = T_m(U0) + t: T_m's smallest single-term inverse lies
        above the root, and one Newton step on log T_m against log U (exact
        for one term, and log T_m is convex in log U) goes down toward it.
        T_m is T for n = 1 and E = 0, and lies above it for E > 0 (G >= G0),
        where the start is raised to the root of free motion, T's far form
        K U |U|**(n-1) / (n sqrt(E)).  NaN where neither root is finite."""
        _, G0, E, K, _ = self._floats
        c, n = self._frozen, self.n

        def frozen(V: float) -> tuple[float, float]:  # T_m sqrt(G0) / K and its slope
            W, Y, slope = V * V, 0.0, 0.0
            for j in range(n - 1, -1, -1):
                Y, slope = Y * W + c[j], slope * W + (2 * j + 1) * c[j]
            return V * Y, slope

        try:
            y = frozen(U0)[0] + t * math.sqrt(G0) / K
            V = min([(abs(y) / cj) ** (1.0 / (2 * j + 1)) for j, cj in enumerate(c) if cj > 0.0])
            if V > 0.0:  # one Newton step on log T_m against log U, down from above
                value, slope = frozen(V)
                V *= (abs(y) / value) ** (value / (V * slope))
            U = math.copysign(V, y)
        except (OverflowError, ValueError, ZeroDivisionError):
            U = math.nan
        if E > 0.0:  # U**n = U0 |U0|**(n-1) + b**n, over the larger of |U0| and b so that no power overflows
            b = t ** (1.0 / n) * (n * math.sqrt(E) / K) ** (1.0 / n)
            top = max(abs(U0), b) or 1.0
            v = U0 / top * abs(U0 / top) ** (n - 1) + (b / top) ** n
            free = top * math.copysign(abs(v) ** (1.0 / n), v)
            U = free if free > U or not abs(U) < math.inf else U
        return U

    def start(self, x0, side0: float, u=None):
        """The time tau0 and angle theta0 since the pericenter of a start at
        x0 on side side0 (x0 None: the pericenter) of a one-row orbit, and
        at a guess u (`step_guess`) T, dT/du, the angle and its rate,
        `place`'s first round, else None: one pass stacked on x0 and u."""
        us = ([] if x0 is None else [x0]) + ([] if u is None else [u])
        if not us:
            return 0.0, 0.0, None
        T, rate, angle, angle_rate = (v.tolist() for v in self._fused(np.array(us)))
        placed = (0.0, 0.0) if x0 is None else (side0 * T[0], side0 * angle[0])
        return *placed, None if u is None else (T[-1], rate[-1], angle[-1], angle_rate[-1])

    def place(self, ts, start=None, first=None) -> tuple[None, np.ndarray, Solve]:
        """No whole periods, the side and u of one time ts since the
        pericenter; every round is a node pass (`_fused`), so the solve
        carries the swept angle.

        start is (u0, side0, t): a start at u0 (None: the pericenter) on
        side side0 and the time t since it; None is the pericenter at t =
        ts.  first is Newton's first guess g and the pass there (`start`);
        None: g is `step_guess` of start, its pass taken here.  T is odd in
        the signed u = side sqrt(sigma - s0) and convex in u with T(0) = 0,
        so T(u)/u increases and the tangent lies below T: T(g) >= |ts| puts
        the root in [g |ts| / T(g), g], T(g) < |ts| in [g, g |ts| / T(g)],
        and Newton goes on from that bracket, its step tolerance 4 ulp of
        g.  A time of 0 is the pericenter, u = 0.
        """
        target = np.abs(ts)
        if first is None:
            (g,) = self.step_guess(*((None, 0.0, ts) if start is None else start))
            first = (g, *(v.item() for v in self._fused(np.array([g]))))
        g, T = first[:2]
        lo = hi = 0.0  # a time of 0: the pericenter
        if target[0] > 0.0:
            chord = g * (target.item() / T)  # g target underflows near the collision
            lo, hi = (chord, g) if T >= target[0] else (g, chord)
        first = first[1:] if lo <= g <= hi else None
        return None, np.sign(ts), _solve_increasing(self._fused, target, np.array([g]), lo, hi, 4.0 * math.ulp(g), first=first)


# u_P / u_S = 4 sin(pi/(2n-2)) of `_RadialOrbit`, n >= 2, and C(n-1, j) / (2j+1) of its `_start`
_panel_scale = functools.cache(lambda n: 4.0 * np.sin(np.pi / (2.0 * n - 2.0)))
_frozen_binomials = functools.cache(lambda n: [math.comb(n - 1, j) / (2 * j + 1) for j in range(n)])


def _panel_sum(scale: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """sum_p scale[:, p] * (Gauss-Legendre sum of panel p of vals), the
    panels added in order (a running sum), so trailing panels of width 0
    add exact zeros."""
    if scale.shape[1] == 1:
        return scale[:, 0] * row_dot(vals, _WEIGHTS)
    parts = row_dot(vals.reshape(scale.shape + (CHART_NODES,)), _WEIGHTS)
    return np.add.accumulate(scale * parts, axis=1)[:, -1]


class Step(NamedTuple):
    """A state advanced on its orbit (floats; arrays of many, `_sample`), its
    angles from the start, and the work."""

    r: float
    p_r: float
    swept: float
    pericenter: float
    periods: float  # whole radial periods since the start's pericenter
    solve: Solve  # the Newton solve for the end


class Solve(NamedTuple):
    """Roots of one vectorised solve of f(x) = t and the work it took."""

    x: np.ndarray
    iterations: int
    f: Callable  # the pass: x -> (value, rate) or (value, rate, carried, carried's rate)
    t: np.ndarray
    carried: np.ndarray | None = None  # the pass's carried value at the roots, to first order from the last round

    def residual(self) -> float:
        """Worst |f(x) - t| at the returned roots; one more pass of f."""
        return float(np.max(np.abs(self.f(self.x)[0] - self.t), initial=0.0))


_SOLVE_MAX_ITER = 64


def _solve_increasing(f, t, x, lo, hi, tol: float, rtol: float = 0.0, first=None) -> Solve:
    """x in [lo, hi] with f(x) = t for an increasing f, elementwise over t.

    f is one Newton round's pass: f(x) gives the value and its rate at x,
    or also the value and rate of a second function there, which the
    solve carries to each root as value + rate (root - x) from its last
    round (`Solve.carried`).  first, the same tuple at the guess x (inside
    the bracket), is the first round's pass, taken already.

    Newton from the first guess x, clipped into the bracket.  The bracket
    is closed, so a sample where f(x) == t exactly stays where it is, and a
    Newton step that leaves it, or is not finite where the rate is 0 or
    overflows, bisects instead.  A NaN f(x) counts as too high, as f beyond
    the float range does.  A sample stops once its step is at most
    tol + rtol |x| or NaN (x NaN: a NaN bound), or after _SOLVE_MAX_ITER steps.  A single sample takes
    the same steps in Python floats (`_solve_one`).
    """
    one = _size(x) == _size(lo) == _size(hi) == 1
    return (_solve_one if one else _solve_rows)(f, t, x, lo, hi, tol, rtol, first)


def _solve_rows(f, t, x, lo, hi, tol: float, rtol: float = 0.0, first=None) -> Solve:
    """`_solve_increasing` on arrays, any number of samples."""
    x, lo, hi = (np.array(v, dtype=float) for v in np.broadcast_arrays(x, lo, hi))
    x = np.clip(x, lo, hi)
    carried = None
    # the unfinished samples: their indices into x and their own copies
    rows, xa, ta = np.arange(x.size), x.ravel(), t.ravel()
    lo, hi = lo.ravel(), hi.ravel()
    iterations = 0
    while rows.size and iterations < _SOLVE_MAX_ITER:
        iterations += 1
        fx, slope, *values = first or f(xa)
        first = None
        res = fx - ta
        lo = np.where(res < 0.0, xa, lo)
        hi = np.where(res <= 0.0, hi, xa)  # a NaN residual counts as too high
        with np.errstate(divide="ignore", invalid="ignore"):  # rate 0: bisect
            new = xa - res / slope
        new = np.where((lo <= new) & (new <= hi), new, 0.5 * (lo + hi))
        new = np.where(res == 0.0, xa, new)
        done = ~(np.abs(new - xa) > (tol + rtol * np.abs(new) if rtol else tol))  # NaN: no bracket is left
        if values:  # before x, of which xa may be a view, moves
            carried = np.full(x.shape, np.nan) if carried is None else carried
            carried.flat[rows] = values[0] + values[1] * (new - xa)
        x.flat[rows] = new
        if done.any():
            keep = ~done
            rows, new, ta, lo, hi = rows[keep], new[keep], ta[keep], lo[keep], hi[keep]
        xa = new
    return Solve(x, iterations, f, t, carried)


def _solve_one(f, t, x, lo, hi, tol: float, rtol: float = 0.0, first=None) -> Solve:
    """`_solve_rows` on one sample in Python floats, which round as the
    array arithmetic does but skip numpy's per-call cost.

    f still sees a (1,) array, so its powers round as for the rows, and
    each round's pass is converted to floats once.  The clip keeps
    np.clip's choices (NaN from any NaN, the bound on a tie of signed
    zeros), and a zero rate gives numpy's quotient, an infinity with the
    signs of res and rate, so the step bisects.
    """
    shape = (1,) * max(_ndim(x), _ndim(lo), _ndim(hi))
    xa, ta, lo, hi = (_item(v) for v in (x, t, lo, hi))
    if xa != xa or lo != lo or hi != hi:
        xa = math.nan
    else:
        xa = xa if xa > lo else lo
        xa = xa if xa < hi else hi
    carried = None
    iterations = 0
    while iterations < _SOLVE_MAX_ITER:
        iterations += 1
        fx, slope, *values = first or [v.item() for v in f(np.array([xa]))]
        first = None
        res = fx - ta
        if res < 0.0:
            lo = xa
        elif not res <= 0.0:  # NaN too
            hi = xa
        if res == 0.0:
            new = xa
        else:
            if slope != 0.0:
                new = xa - res / slope
            else:
                new = xa - (math.copysign(math.inf, res) * math.copysign(1.0, slope) if res == res else res)
            if not lo <= new <= hi:
                new = 0.5 * (lo + hi)
        done = not abs(new - xa) > (tol + rtol * abs(new) if rtol else tol)
        if values:
            carried = values[0] + values[1] * (new - xa)
        xa = new
        if done:
            break
    return Solve(np.array(xa).reshape(shape), iterations, f, t, None if carried is None else np.array(carried).reshape(shape))


class _ZeroEnergyOrbit:
    """Radial integrals of one planar E = 0 orbit in closed form.

    At E = 0 the radicand is 2m Z (sigma - s0), so with sigma = s0 + u**2
    the time since the pericenter is the odd polynomial

        T(u) = k int_0^u (s0 + v**2)**(n-1) dv,   k = n m / sqrt(2m Z),

    and the swept angle is n atan2(u, sqrt(s0)), n pi/2 out to infinity.
    It serves `_sample` (the zero-energy figures); `global_flow` steps an
    E = 0 orbit on `_RadialOrbit`.
    """

    E = 0.0
    s1 = period = np.inf

    def __init__(self, params: ModelParams, l: float) -> None:
        n = self.n = params.n
        self.l = l
        self.s0 = _sigma_min(params, 0.0, l * l)
        self.root2mZ = np.sqrt(2.0 * params.m * params.Z)
        self.k = n * params.m / self.root2mZ
        self.apsis = n * np.pi / 2.0
        # T(u) = u sum_j c_j u**(2j), c_j = k binom(n-1, j) s0**(n-1-j) / (2j+1)
        self._c = np.array(
            [self.k * math.comb(n - 1, j) * self.s0 ** (n - 1 - j) / (2 * j + 1) for j in range(n)]
        )

    def time(self, u):
        return u * np.polynomial.polynomial.polyval(u * u, self._c)

    def time_rate(self, u):
        """T and dT/du at u: a Newton round's pass."""
        return self.time(u), self.k * (self.s0 + u * u) ** (self.n - 1)

    def angle(self, u):
        return self.n * np.arctan2(u, np.sqrt(self.s0))

    def state(self, u):
        """r and |p_r| at u."""
        r = (self.s0 + u * u) ** (self.n / 2.0)
        return r, self.root2mZ * u / r

    def u_at(self, r: float) -> float:
        """u on the way out at radius r."""
        return float(np.sqrt(r ** (2.0 / self.n) - self.s0))

    def place(self, ts, start=None, first=None) -> tuple[None, np.ndarray, Solve]:
        """No whole periods, the side and u of the times ts since the pericenter
        (start and first unread):
        Newton on T(u) = |t| from the smaller inverse of T's first and last
        terms, above the root, down the convex T; the step tolerance is 4
        ulps of the pass's largest guess."""
        tau = np.abs(ts)
        c = self._c
        guess = np.minimum(tau / c[0], (tau / c[-1]) ** (1.0 / (2 * self.n - 1)))
        u_max = float(np.max(guess, initial=0.0))
        return None, np.sign(ts), _solve_increasing(self.time_rate, tau, guess, 0.0, u_max, 4.0 * np.spacing(u_max))


# dT/dphi is even, pi-periodic and real-analytic, so its cosine series
# sum_k a_k cos(2k phi) from the samples at every 4th grid point (DCT-I,
# a = _DCT @ samples) gives T = a_0 phi + sum_k a_k sin(2k phi) / 2k to
# round-off of T(pi/2), on the grid as _SINES @ a.  Newton's first guess
# inverts that table; the solve stops within a few ulps of phi
_PHI_GRID = np.linspace(0.0, np.pi / 2.0, 129)
_PHI_RTOL = 4.0 * np.spacing(1.0)
_TWO_K = 2.0 * np.arange(1, 33)
_ONES = np.ones(32, dtype=complex)
_SERIES_RTOL = 1e-8
_SERIES_PERIODS = 2
_HALF_ENDS = np.r_[0.5, np.ones(31), 0.5]  # DCT-I counts the end samples and coefficients half
_DCT = np.cos(np.pi / 32.0 * np.outer(np.arange(33), np.arange(33))) * np.outer(_HALF_ENDS, _HALF_ENDS) / 16.0
_SINES = np.column_stack((_PHI_GRID, np.sin(np.outer(_PHI_GRID, _TWO_K)) / _TWO_K))


# an orbit whose l**2/2m lies within this fraction of the circular value
# counts as near circular for `_BoundOrbit.through`
_NEAR_CIRCULAR = 1e-2


def _offset_root(c, gap: float, side: float) -> float:
    """The root y on the given side of 0 of sum_j c[j] y**(j+2) = -gap,
    c[0] < 0, by Newton from the root of the quadratic term."""
    y = side * math.sqrt(max(gap, 0.0) / -c[0])
    if len(c) == 1 or y == 0.0:
        return y
    for _ in range(_SOLVE_MAX_ITER):
        F = gap + sum(cj * y ** (j + 2) for j, cj in enumerate(c))
        step = F / sum((j + 2) * cj * y ** (j + 1) for j, cj in enumerate(c))
        y -= step
        if abs(step) <= 2.0 * np.spacing(y):
            break
    return y


class _BoundOrbit:
    """Radial integrals of one bound planar orbit, E < 0 and n >= 2.

    In sigma = r**(2/n) the radicand r**2 p_r**2 = 2m f(sigma) factors as

        f = E sigma**n + Z sigma - l**2/2m = (sigma - s0)(s1 - sigma) R(sigma),

    with R > 0 of degree n - 2 and s0 s1 R(0) = l**2/2m.  With
    sigma = s0 + (s1 - s0) sin(phi)**2 both turning-point singularities
    cancel, and from the pericenter (phi = 0) to the apocenter (phi = pi/2)

        T(phi) = K int_0^phi sigma**(n-1) / sqrt(R),   K = n m / sqrt(2m),

    on the chart's Gauss-Legendre nodes.  The orbit is symmetric about its
    apsides, so every other time reduces to [0, pi/2]: t modulo the radial
    period into [-P/2, P/2], then its distance from the pericenter.

    Every node pass (`_fused`) is one Newton round: T, dT/dphi, the swept
    angle and its rate at phi, its 33rd node.  Newton's first guess
    (`_guess`) inverts T on a grid, read from the cosine series of dT/dphi
    (33 samples give T to round-off), so Newton mostly confirms it in one
    round, and the solve carries the end angle from that round to the root
    to first order.  A `global_flow` step (`_step`) reads its guess off
    the series alone, and so takes one stacked pass: the apsides, the
    start and Newton's first round.  Many phases (`_sample`) take the array
    paths, which compute the same bits.  Between calls the orbit keeps only
    its cached `_apsides` and `_series`.
    """

    def __init__(self, params: ModelParams, E: float, l: float, turning=None) -> None:
        n, Z = params.n, params.Z
        if n < 2 or not E < 0.0:
            raise ValueError("a bound orbit needs n >= 2 and E < 0")
        self.n, self.E, self.l = n, E, l
        self.root2m = math.sqrt(2.0 * params.m)
        self.K = n * params.m / self.root2m
        if turning is not None:
            self.s0, self.s1 = turning
        else:
            self.s0 = _sigma_min(params, E, l * l)  # NoPericenterError above the threshold
            # f <= 0 at the zero of E s**n + Z s, and f is decreasing and concave
            # beyond its peak, so Newton descends from there to the apocenter
            s_far = (Z / -E) ** (1.0 / (n - 1.0))
            self.s1 = max(self.s0, float(_monotone_newton(E, Z, n, l * l / (2.0 * params.m), s_far).x))
        # f / (sigma - s0) = Z + E sum_j sigma**j s0**(n-1-j), divided by
        # (s1 - sigma): every coefficient of R is positive, so R has no cancellation
        g = [E * self.s0 ** (n - 1 - j) for j in range(n)]
        g[0] += Z
        coeffs = [g[n - 1]]
        for j in range(n - 2, 0, -1):
            coeffs.append(g[j] + self.s1 * coeffs[-1])
        self.R0 = -coeffs[-1]
        self._S = [-c for c in coeffs[:-1]]  # S = (R - R0)/sigma, Horner order

    @functools.cached_property
    def _apsides(self) -> tuple[float, float]:
        """Half the radial period and the apsidal angle: T and the angle at pi/2."""
        return tuple(float(v[0]) for v in self._fused(np.array([np.pi / 2.0]))[::2])

    @property
    def period(self) -> float:
        return 2.0 * self._apsides[0]

    @property
    def apsis(self) -> float:
        return self._apsides[1]

    @classmethod
    def through(cls, params: ModelParams, E: float, l: float, sigma: float, radial: float) -> "_BoundOrbit":
        """The bound orbit of the state at sigma = r**(2/n) with <q,p> = radial.

        Near a circular orbit both turning points sit near the peak s_c of
        E s**n + Z s, and their distance from it follows from the small gap
        between the peak's value and l**2/2m.  Taken as that difference,
        the gap carries an error of eps_mach times the peak, which moves the
        turning points by sqrt(eps_mach).  There the gap is read off the
        state instead, as radial**2/2m - (f(sigma) - f(s_c)), a sum of two
        terms >= 0, and each turning point solves f(s_c + y) - f(s_c) = -gap
        in its offset y from the peak.
        """
        n, Z = params.n, params.Z
        s_c, peak = _peak(Z, n, E)
        if peak - l * l / (2.0 * params.m) > _NEAR_CIRCULAR * peak:
            return cls(params, E, l)
        # f(s_c + y) - f(s_c) = sum_j c[j] y**(j+2), as f'(s_c) = 0
        c = [E * math.comb(n, j) * s_c ** (n - j) for j in range(2, n + 1)]
        d = sigma - s_c
        gap = radial * radial / (2.0 * params.m) - sum(cj * d ** (j + 2) for j, cj in enumerate(c))
        return cls(params, E, l, turning=[s_c + _offset_root(c, gap, side) for side in (-1.0, 1.0)])

    def sigma(self, phi):
        return self.s0 + (self.s1 - self.s0) * np.sin(phi) ** 2

    def _RS(self, sigma):
        if not self._S:  # n = 2: R = R0
            return self.R0, 0.0
        S = self._S[0]
        for c in self._S[1:]:
            S = S * sigma + c
        return self.R0 + sigma * S, S

    def _fused(self, phi):
        """T, dT/dphi, the swept angle and its rate at phi in [0, pi/2],
        elementwise, from one pass over the nodes of [0, phi] and phi
        itself as a 33rd node, which the weights leave out.

        As in `_RadialOrbit._fused`, with R = R0 + sigma S the term
        1/(sigma sqrt(R0)) integrates to the arctan, because
        l**2 = 2m s0 s1 R0, and the remainder's integrand
        -S / (sqrt(R R0) (sqrt(R) + sqrt(R0))) stays smooth as l -> 0 (and
        is 0 for n = 2).  The arctan's rate is sqrt(s0 s1)/sigma, 0 on a
        collision orbit, whose angle jumps at the pericenter.
        """
        for work in _records:
            work.passes.append(_BoundOrbit)
        phi = np.asarray(phi, dtype=float)
        sin = np.sin(phi[..., None] * _NODES_AND_END)  # sin(phi) last
        sigma = self.s0 + (self.s1 - self.s0) * (sin * sin)
        R, S = self._RS(sigma)
        rR = np.sqrt(R)
        vals = (sigma if self.n == 2 else sigma ** (self.n - 1)) / rR
        T = self.K * (phi * row_dot(vals[..., :CHART_NODES], _WEIGHTS))
        end = sigma[..., CHART_NODES]
        swept = np.arctan2(math.sqrt(self.s1) * sin[..., CHART_NODES], math.sqrt(self.s0) * np.cos(phi))
        angle_rate = math.sqrt(self.s0) * math.sqrt(self.s1) / end if self.s0 > 0.0 else 0.0 * end
        if self._S:
            c = -self.l / (self.root2m * math.sqrt(self.R0))
            g = S / (rR * (rR + math.sqrt(self.R0)))
            swept = swept + c * (phi * row_dot(g[..., :CHART_NODES], _WEIGHTS))
            angle_rate = angle_rate + c * g[..., CHART_NODES]
        return T, self.K * vals[..., CHART_NODES], self.n * swept, self.n * angle_rate

    def rate(self, phi):
        """dT/dphi, elementwise, in closed form."""
        sigma = self.sigma(phi)
        return self.K * (sigma ** (self.n - 1) / np.sqrt(self._RS(sigma)[0]))

    def time(self, phi):
        """Time from the pericenter to phi in [0, pi/2], elementwise."""
        return self._fused(phi)[0]

    def start(self, x0, side0: float, phi=None):
        """The time tau0 and angle theta0 since the pericenter of a start at
        phase x0 on side side0 (x0 None: the pericenter), from one pass
        stacked on pi/2, which also gives the apsides.  A phase phi joins
        the pass: its T, dT/dphi, angle and angle rate (`place`'s first
        round) come third, else None."""
        phis = [np.pi / 2.0] + ([] if x0 is None else [x0]) + ([] if phi is None else [phi])
        T, rate, angle, angle_rate = (v.tolist() for v in self._fused(np.array(phis)))
        self._apsides = (T[0], angle[0])
        placed = (0.0, 0.0) if x0 is None else (side0 * T[1], side0 * angle[1])
        return *placed, None if phi is None else (T[-1], rate[-1], angle[-1], angle_rate[-1])

    def state(self, phi):
        """r and |p_r| at phi, elementwise: r |p_r| is sqrt(2m f(sigma))
        with f = (s1 - s0)**2 sin**2 cos**2 R.  One phase (a float) is taken
        in floats, with the rows' bits: math's sin, cos and sqrt round as
        numpy's do, and r's power is taken on a (1,) array."""
        one = isinstance(phi, float)
        sin, cos, sqrt = (math.sin(phi), math.cos(phi), math.sqrt) if one else (np.sin(phi), np.cos(phi), np.sqrt)
        sigma = self.s0 + (self.s1 - self.s0) * (sin * sin)
        r = (np.array([sigma]) ** (self.n / 2.0)).item() if one else sigma ** (self.n / 2.0)
        rpr = sqrt(self._RS(sigma)[0]) * (sin * cos) * (self.root2m * (self.s1 - self.s0))
        return r, rpr / r if not one or r else math.nan  # p_r is unbounded at the collision, r = 0

    def phase(self, sigma: float, radial: float) -> float:
        """phi in [0, pi/2] of a state at sigma = r**(2/n) with <q,p> = radial.

        sin(phi)**2 = (sigma - s0)/(s1 - s0) and cos(phi)**2 = (s1 - sigma)/(s1 - s0)
        each cancel near their own turning point, so the larger of the two
        is taken from its difference and the smaller from
        sin(phi) cos(phi) = |radial| / (sqrt(2m R(sigma)) (s1 - s0)).
        """
        width = self.s1 - self.s0
        if width == 0.0:  # circular: every phase is the same state
            return 0.0
        sin_cos = abs(radial) / (self.root2m * np.sqrt(self._RS(sigma)[0]) * width)
        if sigma - self.s0 <= self.s1 - sigma:
            c = math.sqrt((self.s1 - sigma) / width)
            return float(np.arctan2(sin_cos / c, c))
        s = math.sqrt(max(sigma - self.s0, 0.0) / width)
        return float(np.arctan2(s, sin_cos / s))

    @functools.cached_property
    def _series(self):
        """T on _PHI_GRID from the cosine series of dT/dphi, kept increasing
        against round-off, dT/dphi there, and a_0, a_k / 2k and a_k (k >= 1)."""
        rate = self.rate(_PHI_GRID)
        a = _DCT @ rate[::4]
        return np.maximum.accumulate(_SINES @ a), rate, float(a[0]), a[1:] / _TWO_K, a[1:]

    def _series_one(self, phi: float) -> tuple[float, float]:
        """T and dT/dphi at one phase from the series, in Python floats and
        np.dot; sin(2k phi) and cos(2k phi) as the rows of `_guess` take them."""
        _, _, a0, b, a = self._series
        z = np.multiply.accumulate(np.exp(2j * phi) * _ONES)  # exp(2ik phi), k = 1..32
        return a0 * phi + float(np.dot(z.imag, b)), a0 + float(np.dot(z.real, a))

    def _guess(self, t):
        """Newton's first guess for phi at times t in [0, P/2], elementwise:
        `_first_phi` below the table's first step, pi/2 from its last, else
        cubic Hermite on the step's (T, phi, 1 / rate) (linear where it leaves
        the step), then up to two Newton steps on the series, kept while they
        stay in the step and taken while they exceed _SERIES_RTOL."""
        T, rate, a0, b, a = self._series
        guess, j = np.full(t.shape, np.pi / 2.0), np.searchsorted(T, t, "right") - 1
        low, mid = j < 1, np.flatnonzero((j >= 1) & (j < 128))
        j, tm = j[mid], t[mid]
        lo, hi, T0, h = _PHI_GRID[j], _PHI_GRID[j + 1], T[j], T[j + 1] - T[j]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # a rate of 0 or underflowing
            s, d = (tm - T0) / h, hi - lo
            phi = lo + s * d + s * (1.0 - s) * ((h / rate[j] - d) * (1.0 - s) - (h / rate[j + 1] - d) * s)
            phi = np.where((lo <= phi) & (phi <= hi), phi, lo + s * d)
            live = np.arange(phi.size)
            for _ in range(2):
                x = phi[live]
                z = np.multiply.accumulate(np.broadcast_to(np.exp(2j * x)[:, None], (x.size, a.size)), axis=1)  # exp(2ik x), k = 1..32
                slope = a0 + row_dot(z.real, a)
                new = x - (a0 * x + row_dot(z.imag, b) - tm[live]) / slope
                ok = (slope > 0.0) & (lo[live] <= new) & (new <= hi[live])
                phi[live[ok]] = new[ok]
                live = live[ok & (np.abs(new - x) > _SERIES_RTOL * new)]
        guess[mid] = phi
        if low.any():
            guess[low] = self._first_phi(t[low])
        return guess

    def _guess_one(self, t: float) -> float:
        """`_guess` of one time, in floats; below the table's first step,
        from its last and at a rate of 0 by `_guess`."""
        T, rate = self._series[:2]
        j = bisect.bisect_right(T, t) - 1
        if not (1 <= j < 128 and rate[j] > 0.0 and rate[j + 1] > 0.0):
            return float(self._guess(np.array([t]))[0])
        lo, hi, T0, T1 = (float(v) for v in (_PHI_GRID[j], _PHI_GRID[j + 1], T[j], T[j + 1]))
        s, d, h = (t - T0) / (T1 - T0), hi - lo, T1 - T0
        phi = lo + s * d + s * (1.0 - s) * ((h / float(rate[j]) - d) * (1.0 - s) - (h / float(rate[j + 1]) - d) * s)
        if not lo <= phi <= hi:
            phi = lo + s * d
        for _ in range(2):
            value, slope = self._series_one(phi)
            new = phi - (value - t) / slope if slope > 0.0 else math.nan
            if not lo <= new <= hi:
                break
            phi, new = new, phi
            if not abs(phi - new) > _SERIES_RTOL * phi:
                break
        return phi

    def _series_guess_one(self, ts: float):
        """(k, side, guess) of one time, reduced by the series' period
        pi a_0 in place of P; None where that period or ts is not finite,
        or below the table's first step, where the series time has lost
        its relative precision."""
        T, _, a0 = self._series[:3]
        P = np.pi * a0
        if not (math.isfinite(ts) and 0.0 < P < math.inf):
            return None
        k, side, t = _reduce_one(ts, P)
        return (k, side, self._guess_one(t)) if t >= T[1] and abs(k) <= _SERIES_PERIODS else None

    def place(self, ts, start=None, first=None) -> tuple[np.ndarray, np.ndarray, Solve]:
        """Whole periods k, side and phi of each time: ts = k P + side T(phi),
        and the solve carries the swept angle at each phi (`Solve.carried`).

        ts is reduced into [-P/2, P/2] exactly (fmod, then a shift by P
        that Sterbenz's lemma keeps exact), so a time near a pericenter keeps
        its relative precision however many periods lie before it.  phi
        solves T(phi) = |tau| by fused Newton rounds (`_fused`) from
        `_guess`, which needs no start.  The guess reduces the times on the
        series (`_series_times` of start, (x0, side0, t) as `_RadialOrbit`
        takes it; default ts) by the series' period pi a_0 in place of P,
        and ts itself where the whole periods or side differ.  One finite
        time on an orbit of finite, nonzero period takes the same steps in
        Python floats (`_place_one`), with first: the reduction and guess of
        `step_guess`, and the first round's pass at the guess (`start`), or
        () where `step_guess` gave none.
        """
        ts = np.asarray(ts, dtype=float)
        P = self.period
        if ts.shape == (1,) and math.isfinite(ts[0]) and 0.0 < P < math.inf:
            guess = self._series_guess_one(self._series_times(start, ts).item()) if first is None else first
            return self._place_one(ts.item(), guess)
        start = self._series_times(start, ts)
        k, side, t = _reduce(ts, P)
        T, _, a0 = self._series[:3]
        with np.errstate(invalid="ignore"):  # a series period of 0 or inf: no match below
            ks, sides, ta = _reduce(start, np.pi * a0)
        series = (ks == k) & (sides == side) & (ta >= T[1]) & (np.abs(ks) <= _SERIES_PERIODS)
        guess = self._guess(np.where(series, ta, t))
        return k, side, _solve_increasing(self._fused, t, guess, 0.0, np.pi / 2.0, 0.0, _PHI_RTOL)

    def _series_times(self, start, ts):
        """The times on the series that `place`'s guesses reduce: for a
        start (x0, side0, t) its time on the series, 0 at the pericenter (x0
        None), plus t; ts without a start."""
        if start is None:
            return ts
        x0, side0, t = start
        return (0.0 if x0 is None else side0 * self._series_one(x0)[0]) + np.asarray(t, dtype=float)

    def step_guess(self, x0, side0: float, t: float):
        """Newton's first guess of a step by t from x0 on side side0, read
        off the series alone: (k, side, phi), or None (`_series_guess_one`)."""
        return self._series_guess_one(self._series_times((x0, side0, t), None).item())

    def _place_one(self, ts: float, guess) -> tuple[np.ndarray, np.ndarray, Solve]:
        """`place` of one time in floats, from `_series_guess_one` of its
        start (None or (): none) and, following it, its first round, if
        taken already."""
        k, side, t = _reduce_one(ts, self.period)
        if not guess or guess[:2] != (k, side):
            guess = (k, side, self._guess_one(t))
        sol = _solve_increasing(self._fused, np.array([t]), np.array([guess[2]]), 0.0, np.pi / 2.0, 0.0, _PHI_RTOL,
                                guess[3:] or None)
        return np.array([k]), np.array([side]), sol

    def _first_phi(self, t):
        """Newton's first guess for phi at times t below the table's first step.

        Near phi = 0, T is at least rate(0) phi and, in u = sin(phi), its
        last term L u**(2n-1) (1 + (2n-1) c u**2), with L = K (s1 - s0)**(n-1)
        / ((2n-1) sqrt(R(s0))) and c from 1/sqrt(1 - u**2) and R' ~ S at s0.
        The smaller inverse of the two is the guess, near a collision to O(u**4).
        """
        n, width = self.n, self.s1 - self.s0
        R, S = self._RS(np.asarray(self.s0))
        last = self.K * width ** (n - 1) / ((2 * n - 1) * np.sqrt(R))
        c = (0.5 - 0.5 * width * S / R) / (2 * n + 1)
        with np.errstate(divide="ignore", invalid="ignore"):  # s0 = 0 or s1 = s0: one term
            u = (t / last) ** (1.0 / (2 * n - 1))
            return np.fmin(t / self.rate(0.0), np.arcsin(u * (1.0 - c * u * u)))


def _reduce(ts, P):
    """Whole periods k, side and |tau| of times ts = k P + tau, tau in
    [-P/2, P/2]: fmod, then a shift by P that Sterbenz's lemma keeps exact."""
    tau = np.fmod(ts, P)
    tau = np.where(tau > 0.5 * P, tau - P, np.where(tau < -0.5 * P, tau + P, tau))
    return np.round((ts - tau) / P), np.sign(tau), np.abs(tau)


def _reduce_one(ts: float, P: float) -> tuple[float, float, float]:
    """`_reduce` of one finite time by a finite, nonzero P in floats:
    np.round's half to even and the sign of a zero, np.sign's NaN."""
    tau = math.fmod(ts, P)
    if tau > 0.5 * P:
        tau -= P
    elif tau < -0.5 * P:
        tau += P
    k = (ts - tau) / P
    if math.isfinite(k):
        k = math.copysign(round(k), k)
    side = 1.0 if tau > 0.0 else -1.0 if tau < 0.0 else tau - tau  # NaN stays NaN
    return k, side, abs(tau)


def _place_start(orbit, sigma: float, radial) -> tuple | None:
    """A start's coordinate and side (x0, side0) on its orbit, at sigma =
    r**(2/n) with <q,p> = radial: outbound when radial >= 0 (a state at
    rest is the apocenter), (None, 0.0) at the pericenter (radial None),
    and None where x0 is not finite."""
    if radial is None:
        return None, 0.0
    x0 = _item(orbit.phase(sigma, radial))
    return (x0, 1.0 if radial >= 0.0 else -1.0) if math.isfinite(x0) else None


def _step(orbit, sigma: float, radial, t: float) -> Step:
    """(r, p_r, swept angle, pericenter angle) of a one-row orbit's state
    at sigma = r**(2/n) with <q,p> = radial, advanced by t; angles from the
    start.  `_BoundOrbit` and `_RadialOrbit` have the methods used here:
    phase (a state's orbit coordinate x), step_guess (Newton's first guess,
    read before any node pass: off a bound orbit's series, or by
    `_RadialOrbit`'s short-interval rule), start (the start's time tau0 and
    angle theta0 since its pericenter, from one pass stacked with the
    guess's, which is Newton's first round), place (whole periods, side and
    the Newton solve of times since the pericenter) and state (r and |p_r|
    at x).

    The end angle is carried from the solve's last round.  Each whole
    period turns the pericenter by two apsidal angles; without whole
    periods it stays at -theta0.  x stays a float: powers of a (1,) array
    round differently.
    """
    placed = _place_start(orbit, sigma, radial)
    if placed is None:  # no step
        return Step(math.nan, math.nan, math.nan, math.nan, 0.0, None)
    x0, side0 = placed
    guess = orbit.step_guess(x0, side0, t)
    tau0, theta0, first = orbit.start(x0, side0, None if guess is None else guess[-1])
    k, side, sol = orbit.place(np.array([tau0 + t]), (x0, side0, t), () if guess is None else (*guess, *first))
    for work in _records:
        work.rounds.append((type(orbit), sol.iterations))
    x, side = sol.x.item(), float(side[0])
    with np.errstate(divide="ignore", invalid="ignore"):  # p_r is unbounded at the collision: r = 0, or r underflows
        r, p_r = orbit.state(x)
    angle = sol.carried.item()
    if k is None:
        k, pericenter = 0.0, -theta0
    else:
        k = float(k[0])
        pericenter = 2.0 * k * orbit.apsis - theta0
    return Step(float(r), side * float(p_r), pericenter + side * float(angle), pericenter, k, sol)


_SAMPLE_CHUNK = 512  # times per `place` in `_sample`


def _sample(orbit, ts, theta0: float = 0.0, start=None) -> Step:
    """`_step` at many times: an orbit's states at the times ts (1-D, not
    empty) since its pericenter, angles from a start at angle theta0, and
    the solve (with the most iterations of any pass, and the orbit's pass
    that holds at every x).  start, if given, is (x0, side0, t) as `place`
    takes it, t the array of times ts less the start's own.  A bound or
    E = 0 orbit places _SAMPLE_CHUNK times per `place`, each solved alone,
    so its bits do not depend on its chunk.  `_RadialOrbit` places one
    time per `place`: the first from start, each other from the previous
    row's u and side and the time since it, so each Newton guess is
    `_RadialOrbit.step_guess` of a short step.  The angles are carried
    from the solve where it carries them."""
    ts = np.asarray(ts, dtype=float)
    r, p_r, swept, pericenter, periods, x, t = (np.empty_like(ts) for _ in range(7))
    one = isinstance(orbit, _RadialOrbit)  # its `state` takes one u
    chunk = 1 if one else _SAMPLE_CHUNK
    iterations = 0
    for i in range(0, len(ts), chunk):
        part = slice(i, i + chunk)
        k, side, sol = orbit.place(ts[part], start and (*start[:2], start[2][part]))
        x[part], t[part] = sol.x, sol.t
        with np.errstate(divide="ignore", invalid="ignore"):  # p_r is unbounded at the collision
            r[part], p = orbit.state(sol.x[0] if one else sol.x)
        p_r[part] = side * p
        pericenter[part] = -theta0 if k is None else 2.0 * k * orbit.apsis - theta0
        angle = sol.carried if sol.carried is not None else orbit.angle(sol.x)
        swept[part] = pericenter[part] + side * angle
        periods[part] = 0.0 if k is None else k
        iterations = max(iterations, sol.iterations)
        if one:
            start = (sol.x.item(), side.item(), ts - ts[i])
    return Step(r, p_r, swept, pericenter, periods, Solve(x, iterations, sol.f, t))


class ChartRows(NamedTuple):
    """Chart images of stacked states: T and H are (k,), B and A (k, d)."""

    T: np.ndarray
    H: np.ndarray
    B: np.ndarray
    A: np.ndarray


def chart_forward_rows(params: ModelParams, z: np.ndarray) -> ChartRows:
    """Chart images of the states z = (q, p), one row of a (k, 2d) array each.

    In its `plane_reduce` frame a state lies at angle 0 and its orbit turns
    with l = Im(conj(qc) pc) >= 0.  The pericenter lies at the swept angle
    behind the state when <q,p> > 0 and ahead of it otherwise; T is
    positive iff <q,p> > 0.  Every step acts on rows alone, so a row's image
    does not depend on the other rows of z.  Raises ChartDomainError when
    any row lies outside U^eps, naming a non-finite energy.
    """
    d = params.d
    z = np.asarray(z, dtype=float)
    for work in _records:
        work.rows += len(z)
    q, p = z[:, :d], z[:, d:]
    with np.errstate(over="ignore", invalid="ignore"):  # a row beyond the float range is refused below
        e1, e2, qc, pc = cov.plane_reduce_rows(q, p)  # DomainError at q = 0
        r = radius_rows(q, row_dot(q, q))
        # H, to the bit as `hamiltonian` gives it for each row
        E = kinetic_rows(p, row_dot(p, p), params.m) - params.Z * _pow(r, -params.alpha)
    _require_domain(params, r, E)
    return _chart_rows(params, q, p, e1, e2, r, E, qc.real * pc.imag - qc.imag * pc.real, row_dot(q, p))


def chart_forward(params: ModelParams, x: PhasePoint) -> ChartPoint:
    """Chart image (T, H; B, A) of x: its row of `chart_forward_rows`, bit for
    bit, with r, E and the plane in floats (`_radius_energy_radial`, `plane_reduce`)."""
    r, E, radial = _radius_energy_radial(params, x)  # DomainError at q = 0
    _require_domain(params, r, E)
    frame, qc, pc = cov.plane_reduce(x)
    l = qc.real * pc.imag - qc.imag * pc.real
    c = _chart_rows(params, x.q[None], x.p[None], frame.e1, frame.e2, r, np.array([E]), np.array([l]), radial)
    return ChartPoint(T=float(c.T[0]), H=E, B=c.B[0], A=c.A[0])


def _require_domain(params: ModelParams, r, E) -> None:
    """ChartDomainError unless every (r, E), floats or (k,) arrays, lies in U^eps,
    naming a non-finite energy (<p, p> beyond the float range); floats skip
    the reductions, which cost microseconds on numpy's scalars."""
    one = isinstance(E, float)
    if not (math.isfinite(E) if one else np.isfinite(E).all()):
        raise ChartDomainError(f"the energy H={E if one else E[~np.isfinite(E)][0]} is not finite: outside U^eps")
    inside = _in_domain(params, r, E)
    if not (inside if one else inside.all()):
        raise ChartDomainError("the chart requires a point of U^eps")


def _chart_rows(params: ModelParams, q, p, e1, e2, r, E, l, radial) -> ChartRows:
    """Chart images of (k, d) states q, p from their frames (e1, e2), r, E,
    l and <q,p>: (k,) arrays, or for one state e1, e2 (d,) and r, radial floats."""
    n = params.n
    orbit = _RadialOrbit(params, E, l)
    sign = np.sign(radial)
    T, phi = orbit._fused(orbit.phase(_pow(r, 2.0 / n), radial))[::2]
    phi = -sign * phi
    # the pericenter momentum has direction i e^(i phi); lift it to the branch
    # at angle phi/n
    lrl = _lrl_complex(params, 1j * np.exp(1j * (phi / n)))
    A = lrl.real[:, None] * e1 + lrl.imag[:, None] * e2
    L = p[:, :, None] * q[:, None, :] - q[:, :, None] * p[:, None, :]  # L_ij = q_j p_i - q_i p_j
    B = (L @ A[:, :, None])[:, :, 0]
    return ChartRows(T=sign * T, H=E, B=B, A=A)


def r_min(params: ModelParams, E: float, l2: float) -> float:
    """Pericenter radius: the smallest r >= 0 with E r**2 + Z r**(2/n) = l2/(2m).

    For n = 2 the exact quadratic closed form is used; otherwise monotone
    Newton in sigma = r**(2/n).  For E < 0 with supercritical l2 there is no
    root.  For n >= 3 it is right within 1e-13 relative (against a 40-digit
    bisection) wherever r is a normal float, for E < 0 while l2 lies 2.3 %
    or more below the circular-orbit threshold, near which the root is double.
    r beyond the float range is inf."""
    return _or_inf(pow, _sigma_min(params, E, l2), params.n / 2.0)


def _or_inf(f, *args) -> float:
    """f(*args), inf where the float power or math.ldexp in it overflows."""
    try:
        return f(*args)
    except OverflowError:
        return math.inf


def _sigma_min(params: ModelParams, E, l2):
    """sigma = r**(2/n) at the pericenter; elementwise, a float for scalars."""
    if (l2 < 0.0) if _ndim(l2) == 0 else np.any(np.asarray(l2) < 0):
        raise ValueError("l2 must be non-negative")
    return (r_min_kepler if params.n == 2 else _sigma_root)(params, E, l2)


def _sigma_of_l(E: float, l: float, m: float, Z: float, n: int) -> float:
    """`_sigma_min` of one orbit of energy E and angular momentum l >= 0.
    Where l**2 is not a normal float it has lost digits, so l**2 and m are
    scaled by one power of 4 first, as far as m stays finite: the roots
    read them as l**2/(2m) and by `_units`' exponents, which that keeps."""
    if not (l == 0.0 or l * l >= _TINY):
        k = min(-math.frexp(l)[1], (1024 - math.frexp(m)[1]) // 2)
        l, m = math.ldexp(l, k), math.ldexp(m, 2 * k)
    return _r_min_kepler_one(E, l * l, m, Z) if n == 2 else _sigma_root_one(E, l * l, m, Z, n)


def _r_min_root(params: ModelParams, E: float, l2: float) -> float:
    """Pericenter radius by the Newton solver, any n >= 1."""
    return _or_inf(pow, _sigma_root(params, E, l2), params.n / 2.0)


def _each(root, E, l2, *args):
    """root(E, l2, *args) of each float pair of E and l2: a float for scalars,
    else an array of their broadcast shape (25-37 rows cost about numpy's overhead)."""
    if _ndim(E) == _ndim(l2) == 0:
        return root(float(E), float(l2), *args)
    E, l2 = (np.asarray(v, dtype=float) for v in np.broadcast_arrays(E, l2))
    return np.array([root(e, b, *args) for e, b in zip(E.ravel().tolist(), l2.ravel().tolist())]).reshape(E.shape)


def _peak(Z: float, n: int, E: float) -> tuple[float, float]:
    """sigma and value of the maximum of E s**n + Z s (E < 0, n >= 2), the
    l**2/2m of the circular orbit of energy E; as n E s_peak**(n-1) = -Z,
    the value is Z s_peak (n-1)/n, with no s_peak**n to overflow."""
    s_peak = math.pow(Z / (n * -E), 1.0 / (n - 1.0))
    return s_peak, Z * s_peak * ((n - 1.0) / n)


def _sigma_root(params: ModelParams, E, l2):
    """Smallest root of E s**n + Z s = l2/(2m), s = r**(2/n), one at a time
    (`_sigma_root_one`); NoPericenterError where any row has none."""
    return _each(_sigma_root_one, E, l2, params.m, params.Z, params.n)


def _sigma_root_one(E: float, l2: float, m: float, Z: float, n: int) -> float:
    """`_sigma_root` of one float E and l2.  Below the centrifugal maximum f
    is increasing, concave for E < 0 and convex for E > 0: Newton climbs to
    the root (E < 0) or descends to it (E > 0) from l2/(2 m Z), the root at
    E = 0 itself, or for E > 0 from the smaller of it and (l2/(2 m E))**(1/n), which
    lies within a factor 2 of the root.  Where l2/(2m), its ratios to Z and
    |E|, or n E leave the normal floats, it is found in `_units`' units."""
    k, b, e, z, rhs = 0, 1.0, E, Z, l2 / (2.0 * m)
    if n == 1:
        if E + Z <= 0.0 and rhs != 0.0:
            raise NoPericenterError("n = 1 requires positive kinetic energy E + Z")
        return rhs / (1.0 if rhs == 0.0 else E + Z)
    if not (l2 == 0.0 or _TINY <= rhs < math.inf and (E > 0.0 or rhs / Z < math.inf and n * E > -math.inf)
            and (E == 0.0 or _TINY <= rhs / abs(E) < math.inf)):
        k, b, e, rhs, z = _units(E, l2, m, Z, n)
    if e < 0.0 and rhs > 0.0:
        s_peak, peak = _peak(z, n, e)
        if peak < rhs:
            raise NoPericenterError(f"no pericenter for E={E}, l2={l2}: angular momentum above the circular-orbit threshold")
        if peak == rhs:  # circular orbit: a double root, where Newton stops ~sqrt(eps) short
            return _or_inf(math.ldexp, b * s_peak, k)
    s = min(rhs / z, math.pow(rhs / e, 1.0 / n)) if e > 0.0 else rhs / z
    s = b * (_monotone_newton(e, z, n, rhs, s).x if e else s)  # at E = 0 no Newton: 0 s**n may read 0 inf
    return _or_inf(math.ldexp, s, k) if k else s


def _units(E: float, l2: float, m: float, Z: float, n: int) -> tuple[int, float, float, float, float]:
    """(k, b, E', rhs', Z'): E s**n + Z s = rhs = l2/(2m) as E' y**n + Z' y =
    rhs' in y = s / (b 2**k).  For n > 2 and a normal rhs, +-y**n + c y = 1
    with b = (rhs/|E|)**(1/n) and c = Z b / rhs, unless c overflows.  Else
    b = 1, rhs' in (1/4, 1) and k the log2 of the smaller of rhs/Z and
    (rhs/|E|)**(1/n), from the exponents of E, l2, m and Z apart, so that
    nothing overflows.  A negligible c or Z' is raised to 5e-324 or 2**-1000."""
    rhs = l2 / (2.0 * m)
    if _TINY <= rhs < math.inf and E != 0.0 and n > 2:
        b = math.pow(rhs, 1.0 / n) / math.pow(abs(E), 1.0 / n)
        if Z * b / rhs < math.inf:
            return 0, b, math.copysign(1.0, E), 1.0, max(Z * b / rhs, 5e-324)
    (fl, il), (fm, im), (fz, iz), (_, ie) = (math.frexp(v) for v in (l2, m, Z, E))
    rho = il - im  # rhs = fl/(2 fm) 2**rho
    k = rho - iz if E == 0.0 else min(rho - iz, (rho - ie) // n)
    return k, 1.0, math.ldexp(E, n * k - rho), fl / (2.0 * fm), math.ldexp(fz, max(iz + k - rho, -1000))


_NEWTON_MAX_ITER = 200  # bounds a NaN or runaway start: from the root's starts Newton takes a handful


def _monotone_newton(E: float, Z: float, n: int, rhs: float, s: float) -> Solve:
    """The root of E s**n + Z s = rhs by Newton from s, in Python floats,
    s on a side where the iterates move monotonically toward the root.  It
    stops at the first step that no longer moves that way or no longer
    changes s (a step below half an ulp of s), and is NaN where a power
    overflows or the slope is 0.  Where n E overflows (E beyond 1.8e308 /
    n), the slope is n (E s**(n-1)), which at s = 0 is 0, not NaN."""
    f = lambda x: (E * _pow(x, n) + Z * x,)  # noqa: E731
    nE, wide, last = n * E, not abs(n * E) < math.inf, 0.0  # last: the sign of the last step
    for iterations in range(1, _NEWTON_MAX_ITER + 1):
        try:
            power = s ** (n - 1)
            step = (E * s**n + Z * s - rhs) / ((n * (E * power) if wide else nE * power) + Z)
        except (OverflowError, ZeroDivisionError):
            s = math.nan
            break
        new = s - step
        if new == s or last * step < 0.0:
            break
        s, last = new, 1.0 if step > 0.0 else -1.0
    for work in _records:
        work.roots.append(iterations)
    return Solve(s, iterations, f, rhs)


def r_min_kepler(params: ModelParams, E, l2):
    """Closed-form Kepler pericenter radius (n = 2 only), one at a time
    (`_each` of `_r_min_kepler_one`)."""
    if params.n != 2:
        raise ValueError("closed form only available for n = 2")
    return _each(_r_min_kepler_one, E, l2, params.m, params.Z)


def _r_min_kepler_one(E: float, l2: float, m: float, Z: float) -> float:
    """`r_min_kepler` of one float E and l2: (l2/m) / (Z + sqrt(disc)), disc
    = Z**2 + 2 E l2 / m, the conjugate of (-Z + sqrt(disc)) / (2E), exact at
    E = 0; sqrt(2/m) sqrt(E) sqrt(l2) where disc overflows and Z**2 is below
    2**-54 of it.  Where Z**2 or E l2 leave the normal floats and lose more
    than 2**-54 of disc, or l2/m does, the form in the units of `_units`."""
    k, z, disc, top = 0, Z, math.inf, l2 / m
    if (Z * Z < math.inf and (_TINY <= Z * Z or 4e-292 <= abs(2.0 * (E * l2) / m))
            and (_TINY <= abs(E * l2) or E == 0.0 or l2 == 0.0 or 1e-307 <= Z * Z * m) and (_TINY <= top < math.inf or l2 == 0.0)):
        disc = Z * Z + 2.0 * (E * l2) / m
        if disc == math.inf and 2.0**27 * Z <= (far := math.sqrt(2.0 / m) * math.sqrt(E) * math.sqrt(l2)) < math.inf:
            return top / (Z + far)
    if abs(disc) == math.inf:  # E l2 or 2 E l2 / m beyond the float range too
        k, _, e, rhs, z = _units(E, l2, m, Z, 2)
        disc, top = z * z + 4.0 * e * rhs, 2.0 * rhs
    if disc < 0.0:
        raise NoPericenterError(f"no pericenter for E={E}, l2={l2}")
    r = top / (z + math.sqrt(disc))
    return _or_inf(math.ldexp, r, k) if k else r


def _kepler_series(terms: int = 18) -> tuple[np.ndarray, np.ndarray]:
    """Power series at x = 0 of f(x) = asinh(sqrt(x))/sqrt(x) and
    g(x) = (sqrt(1 + x) - f(x)) / (2x), valid for either sign of x."""
    c, b = [1.0], [1.0]  # asin(y)/y in y**2, and binomial(1/2, j)
    for j in range(terms):
        c.append(c[-1] * (2 * j + 1) ** 2 / ((2 * j + 2) * (2 * j + 3)))
        b.append(b[-1] * (0.5 - j) / (j + 1))
    f = [(-1) ** j * c[j] for j in range(terms)]
    g = [0.5 * (b[j + 1] - (-1) ** (j + 1) * c[j + 1]) for j in range(terms)]
    return np.array(f), np.array(g)


_KEPLER_F, _KEPLER_G = _kepler_series()


def kepler_time_closed_form(params: ModelParams, x: PhasePoint) -> float:
    """Time since pericenter for n = 2, by explicit antiderivatives.

    With r = r_min + w**2 the radicand factors as
    2 E r**2 + 2 Z r - l**2/m = 2 w**2 (k + E w**2), k = Z + 2 E r_min, so

        |T| = sqrt(2m) int_0^w (r_min + s**2) / sqrt(k + E s**2) ds
            = sqrt(2m) (w / sqrt(k)) (r_min f(x) + w**2 g(x)),  x = E w**2 / k,

    with f(x) = asin(sqrt(-x))/sqrt(-x) for E < 0, where sqrt(-x) is the
    sine of half the eccentric anomaly, f(x) = asinh(sqrt(x))/sqrt(x) for
    E > 0, and g(x) = (sqrt(1 + x) - f(x)) / (2x).  Near x = 0 these closed
    forms cancel, and their power series are summed instead.  w is taken
    from <q,p> = r p_r, which has no cancellation near the pericenter.
    """
    if params.n != 2:
        raise ValueError("closed-form pericenter time requires n = 2")
    if not in_U_eps(params, x):
        raise ChartDomainError("point outside the chart domain")
    m, Z = params.m, params.Z
    E = hamiltonian(params, x)
    r0 = r_min_kepler(params, E, l_squared_point(x))
    w = abs(x.radial) / np.sqrt(2.0 * m * (Z + E * (x.r + r0)))
    k = Z + 2.0 * E * r0
    xk = E * w * w / k
    if abs(xk) < 0.1:
        f = np.polynomial.polynomial.polyval(xk, _KEPLER_F)
        g = np.polynomial.polynomial.polyval(xk, _KEPLER_G)
    else:
        y = np.sqrt(abs(xk))
        f = (np.arcsinh(y) if xk > 0.0 else np.arcsin(y)) / y
        g = (np.sqrt(1.0 + xk) - f) / (2.0 * xk)
    T = np.sqrt(2.0 * m) * w / np.sqrt(k) * (r0 * f + w * w * g)
    return float(np.sign(x.radial) * T)


def _pericenter_frame(n: int, A: np.ndarray, B_hat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The frame (e1, e2) in which an orbit with chart axes A and B_hat has
    its pericenter on the positive e1 axis and turns counterclockwise.  At
    a non-collision pericenter the chart LRL value is
    -(i ||p|| r^((n-1)/n))**n, -i**n times a positive real: A = s e1 for n
    even, s = Re(-i**n), and A = s e2 for n odd, s = Im(-i**n)."""
    w = -(1j**n)
    if n % 2 == 0:
        s = float(np.sign(w.real))
        return s * A, s * B_hat
    s = float(np.sign(w.imag))
    return -s * B_hat, s * A


def chart_inverse(params: ModelParams, c: ChartPoint) -> ExtendedPoint:
    """Reconstruct the phase-space point with chart image c.

    In chart coordinates the flow is the translation T -> T + t, so every
    point, collision orbits (B = 0) included, is its orbit's state a time
    T after the pericenter: `_step` from the pericenter, embedded in the
    pericenter frame spanned by A and B.  T increases with u, so the point
    lies in the chart's image iff the step ends below the u where the
    orbit leaves U^eps.  Where it ends at r = 0, at (T, B) = (0, 0) or
    with r below the float range, it is the glued collision point (H, A).
    """
    A = np.asarray(c.A, dtype=float)
    B = np.asarray(c.B, dtype=float)
    if abs(np.linalg.norm(A) - 1.0) > 1e-8:
        raise ValueError("A must be a unit vector")
    if abs(float(np.dot(A, B))) > 1e-8 * max(1.0, np.linalg.norm(B)):
        raise ValueError("B must be perpendicular to A")

    ell = radius(B, float(np.dot(B, B)))  # scaled where |B|**2 is not a normal float
    n = params.n
    if n == 1 and c.H <= -0.5 * params.Z:
        raise ChartDomainError("H lies below the chart domain's energy floor -Z/2")
    orbit = _RadialOrbit(params, np.array([c.H]), np.array([ell]))
    # the orbit's part in U^eps: r < eps and, for H < 0, H > -Z / (2 n r**alpha)
    s_max = params.eps ** (2.0 / n)
    if c.H < 0.0 and n > 1:
        s_max = min(s_max, (params.Z / (2.0 * n * -c.H)) ** (1.0 / (n - 1.0)))
    if not orbit.s0[0] < s_max:  # NaN too: H not finite
        raise ChartDomainError("reconstructed pericenter lies outside the chart domain")
    step = _step(orbit, 0.0, None, float(c.T)) if math.isfinite(c.T) else None
    if not (step and step.solve.x[0] < math.sqrt(s_max - orbit.s0[0])):
        raise ChartDomainError("chart point lies outside the image of the chart")
    if step.r == 0.0:  # the collision, or r below the float range: `global_flow` ends there too
        return Collision(h=c.H, a=A / np.linalg.norm(A))
    # a collision orbit sweeps n quarter turns and lies on the line of A,
    # whichever unit vector stands in for B / |B|
    B_hat = B / ell if ell > 0.0 else cov._completion(A)
    return _embed(*_pericenter_frame(n, A, B_hat), step.r, step.p_r, ell, step.swept)


def project_to_config(x: ExtendedPoint) -> np.ndarray:
    """Configuration-space projection; the whole glued set maps to the origin."""
    if isinstance(x, Regular):
        return x.x.q.copy()
    return np.zeros_like(x.a)


# ---------------------------------------------------------------------------
# global flow
# ---------------------------------------------------------------------------


def global_flow(
    params: ModelParams,
    x0: ExtendedPoint,
    t: float,
    cfg: ode.IntegratorConfig | None = None,
) -> ExtendedPoint:
    """Flow on the completed phase space: defined for every start and every t.

    In chart coordinates the flow is the translation T -> T + t, and every
    orbit, not only its part in U^eps, reduces to radial quadratures.  A
    step reduces the state to its plane, reads E and l, advances it on its
    orbit by `_step` and rotates by the swept angle: bound orbits (E < 0) on
    `_BoundOrbit`, unbound ones on `_RadialOrbit`, n = 1 on a straight line.
    A collision orbit (l = 0) passes through the collision with the parity
    of n, and a step that ends exactly on the collision returns `Collision`.
    `Collision(h, a)` starts at the pericenter of the collision orbit that
    `chart_inverse` builds on the line of a.  No ODE is integrated, so `cfg`
    is not read; it is accepted for callers that still pass one.

    Raises DomainError when the start's radius, energy, angular momentum or
    orbit constants, or the end state, are not finite: a start or a time
    beyond the float range.  Under DEBUG logging each call logs one line: the
    orbit class, the whole radial periods, the Newton iterations, the node
    passes and the final |T(x) - t| of the solve (one more pass, taken only then).
    """
    state: ExtendedPoint = Regular(x0) if isinstance(x0, PhasePoint) else x0
    if t == 0.0:
        return state
    t = float(t)
    _require_finite("time", state, t, t)
    with counting() if log.isEnabledFor(logging.DEBUG) else contextlib.nullcontext() as work:
        end, kind, periods, sol = (_line_flow if params.n == 1 else _orbit_flow)(params, state, t)
    if work is not None:  # a record only under DEBUG; its passes before the residual's one more pass of T
        log.debug("global_flow %s orbit t=%r periods=%r newton_iterations=%d node_passes=%d residual=%r", kind, t, periods,
                  *((sol.iterations, len(work.passes), sol.residual()) if sol is not None else (0, 0, 0.0)))
    return end


def trajectory(params: ModelParams, x0: ExtendedPoint, ts) -> list[ExtendedPoint]:
    """`global_flow(params, x0, t)` at every time t of ts, as one orbit.

    The start is reduced to its plane, its orbit built and the start placed
    once, and `_sample` places every time since the pericenter.  Rows keep
    `global_flow`'s behaviour: a row at t = 0 is the start, a row on the
    collision is `Collision`, n = 1 rows move on the line, and the first
    time that `global_flow` refuses raises its DomainError.  Under DEBUG
    logging each call logs one line: the orbit class, the rows, the most
    whole periods, the most Newton iterations, the node passes and the worst |T(x) - t|.
    """
    state: ExtendedPoint = Regular(x0) if isinstance(x0, PhasePoint) else x0
    ts = np.asarray(ts, dtype=float).tolist()
    for t in ts:
        _require_finite("time", state, t, t)
    rows, kind, periods, sol = [state] * len(ts), "no", 0.0, None  # no row moves
    with counting() if log.isEnabledFor(logging.DEBUG) else contextlib.nullcontext() as work:
        if any(ts):  # from the first time that moves
            rows, kind, periods, sol = (_line_flow if params.n == 1 else _orbit_flow)(params, state, next(t for t in ts if t), ts)
    if work is not None:  # a record only under DEBUG; its passes before the residual's one more pass of T
        log.debug("trajectory %s orbit rows=%d periods=%r newton_iterations=%d node_passes=%d residual=%r", kind, len(ts),
                  periods, *((sol.iterations, len(work.passes), sol.residual()) if sol is not None else (0, 0, 0.0)))
    return rows


def _orbit_flow(params: ModelParams, state: ExtendedPoint, t: float, ts: list | None = None):
    """`global_flow` for n >= 2 by `_step`, or with times ts `trajectory`'s
    rows by `_sample`, t their first nonzero time: the end state or rows, the
    orbit's class, the most whole periods and the Newton solve."""
    if isinstance(state, Collision):
        a = state.a / np.linalg.norm(state.a)
        e1, e2 = _pericenter_frame(params.n, a, cov._completion(a))
        E, l, sigma, radial = state.h, 0.0, 0.0, None
    else:
        r, E, radial = _radius_energy_radial(params, state.x)
        _require_finite("start's radius, energy or angular momentum", state, t, r, E, radial)
        if r < _SMALL:
            return _scaled_flow(params, state, t, ts, -math.frexp(r)[1] // params.n)
        frame, qc, pc = cov.plane_reduce(state.x)
        e1, e2 = frame.e1, frame.e2
        l = qc.real * pc.imag - qc.imag * pc.real
        if l < 0.0:  # rounding on a collision orbit: turn the frame instead
            e2, l = -e2, -l
        sigma = _pow(r, 2.0 / params.n)
    _require_finite("start's radius, energy or angular momentum", state, t, sigma, E, l * l, radial or 0.0)
    # an orbit whose apocenter lies beyond the float range (E > -1e-154 for
    # n = 2) flows as E = 0: no step can tell the two apart
    bound = E < 0.0 and math.log(params.Z / -E) * params.n / (params.n - 1.0) < 700.0
    if bound:
        orbit = _BoundOrbit.through(params, E, l, sigma, radial)
        _require_finite("start's orbit", state, t, orbit.s0, orbit.s1)
    else:
        orbit = _RadialOrbit(params, np.array([max(E, 0.0)]), np.array([l]))
        _require_finite("start's orbit", state, t, orbit.s0[0], orbit.G0[0])
    if ts is None:
        step = _step(orbit, sigma, radial, t)
        placed = step.pericenter
    else:  # `_step`'s start, placed once
        at = _place_start(orbit, sigma, radial)
        tau0, placed, _ = (math.nan, math.nan, None) if at is None else orbit.start(*at)
        step = _sample(orbit, [tau0 + t for t in ts], placed, at and (*at, np.array(ts)))
    # the first node pass gave the period and apsis, and placed the start at a finite angle
    _require_finite("start's orbit", state, t, *((orbit.period, orbit.apsis) if bound else (placed,)))
    kind = "collision orbit" if l == 0.0 else "bound" if bound else "unbound"

    def end(t, r, p_r, swept, pericenter) -> ExtendedPoint:
        _require_finite("end state", state, t, r, swept, pericenter)
        if r == 0.0:  # on the collision: A is its direction
            lrl = _lrl_complex(params, 1j * np.exp(1j * (pericenter / params.n)))
            a = lrl.real * e1 + lrl.imag * e2
            return Collision(h=E, a=a / np.linalg.norm(a))
        _require_finite("end state", state, t, p_r)
        return _embed(e1, e2, r, p_r, l, swept)

    if ts is None:
        return end(t, *step[:4]), kind, step.periods, step.solve
    rows = [end(t, *row) if t != 0.0 else state for t, *row in zip(ts, *(v.tolist() for v in step[:4]))]
    return rows, kind, float(np.max(np.abs(step.periods))), step.solve


# |q| below which sigma**n = |q|**2 is not a normal float
_SMALL = math.sqrt(_TINY)


def _scaled_flow(params: ModelParams, state: Regular, t: float, ts: list | None, k: int):
    """`_orbit_flow` of a start with |q| < _SMALL, whose orbit constants in
    sigma would lose digits, as the flow of its image under the scaling
    q -> 2**(n k) q, p -> 2**((1-n) k) p, t -> 2**((2n-1) k) t, H -> 2**(2(1-n) k) H,
    which the homogeneous potential keeps and which is exact in floats."""
    a, b, c = params.n * k, (1 - params.n) * k, (2 * params.n - 1) * k
    big = Regular(PhasePoint(np.ldexp(state.x.q, a), np.ldexp(state.x.p, b)))
    with np.errstate(over="ignore"):  # a time beyond the float range is refused below
        times = np.ldexp([t] + (ts or []), c).tolist()
    _require_finite("scaled time", state, t, *times)
    ends, kind, periods, sol = _orbit_flow(params, big, times[0], None if ts is None else times[1:])

    def back(end: ExtendedPoint, s: float) -> ExtendedPoint:
        if s == 0.0:
            return state
        with np.errstate(over="ignore"):  # an end beyond the float range is refused
            if isinstance(end, Collision):
                h = float(np.ldexp(end.h, -2 * b))
                _require_finite("end state", state, s, h)
                return Collision(h=h, a=end.a)
            q, p = np.ldexp(end.x.q, -a), np.ldexp(end.x.p, -b)
            _require_finite("end state", state, s, *q, *p)
            return Regular(PhasePoint(q, p))

    return back(ends, t) if ts is None else [back(*row) for row in zip(ends, ts)], kind, periods, sol


def _radius_energy_radial(params: ModelParams, x: PhasePoint) -> tuple[float, float, float]:
    """x.r, `hamiltonian` and x.radial of one state, bit for bit, from the
    three dot products <q,q>, <p,p> and <q,p> (q or p scaled where its own
    is not a normal float), taken without numpy's warnings: one that
    overflows is left for the caller to refuse as an inf or NaN."""
    q, p = x.q, x.p
    with np.errstate(over="ignore", invalid="ignore"):
        qq, pp, qp = np.dot(q, q), np.dot(p, p), np.dot(q, p)
    r = radius(q, qq)
    if r == 0.0:  # before the float power, which raises ZeroDivisionError at 0
        raise DomainError("q = 0 is outside the unregularised phase space")
    E = kinetic(p, float(pp), params.m) - params.Z * inverse_power(r, params.alpha)
    return r, E, float(qp)


def _require_finite(what: str, state: ExtendedPoint, t: float, *values: float) -> None:
    if not all(map(math.isfinite, values)):
        raise DomainError(f"global_flow: the {what} is not finite, from {state} after t={t!r}")


def _embed(e1, e2, r: float, p_r: float, l: float, angle: float) -> Regular:
    """The state at radius r with radial momentum p_r and angular momentum
    l, turned by angle from e1 toward e2."""
    c, s = math.cos(angle), math.sin(angle)
    u, v = c * e1 + s * e2, c * e2 - s * e1
    return Regular(PhasePoint(r * u, p_r * u + (l / r) * v))


def _line_flow(params: ModelParams, state: ExtendedPoint, t: float, ts: list | None = None):
    """`_orbit_flow` for n = 1: free motion at constant momentum, no periods
    and no solve.  `Collision(h, a)` leaves along -a at speed sqrt(2m(Z + h)),
    as A = -p/|p| has it; a line that reaches the origin exactly returns `Collision`."""
    if ts is not None:
        return [_line_flow(params, state, s)[0] if s != 0.0 else state for s in ts], "n = 1 line", 0.0, None
    if isinstance(state, Collision):
        if not state.h > -params.Z:
            raise DomainError("an n = 1 collision launch needs kinetic energy h + Z > 0")
        p = -np.sqrt(2.0 * params.m * (params.Z + state.h)) * state.a / np.linalg.norm(state.a)
        q = p * (t / params.m)
    else:
        q, p = state.x.q + state.x.p * (t / params.m), state.x.p
        if not q.any():
            return Collision(h=hamiltonian(params, state.x), a=-p / np.linalg.norm(p)), "n = 1 line", 0.0, None
    _require_finite("end state", state, t, *q, *p)
    return Regular(PhasePoint(q, p)), "n = 1 line", 0.0, None
