"""Dynamical system definition: parameters, potential, Hamiltonian, angular momentum.

The family of attractive homogeneous potentials is

    U_n(q) = Z * ||q||**(-alpha_n),   alpha_n = 2*(1 - 1/n),

so n = 1 is free motion (constant potential) and n = 2 is the Kepler problem.
The Hamiltonian is H(q, p) = ||p||**2 / (2 m) - U_n(q).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class DomainError(ValueError):
    """Raised when an operation is evaluated outside its domain (e.g. q = 0)."""


@dataclass(frozen=True)
class ModelParams:
    """Tuple (n, d, m, Z, eps) fixing the dynamical system and chart radius.

    n    : potential index, n >= 1.  alpha_n = 2*(1 - 1/n) in [0, 2).
    d    : spatial dimension, d >= 2.
    m    : particle mass, > 0.
    Z    : coupling strength, > 0 (attractive).
    eps  : radius of the near-collision chart domain, > 0.
    """

    n: int
    d: int
    m: float = 1.0
    Z: float = 1.0
    eps: float = 0.1

    def __post_init__(self) -> None:
        if int(self.n) != self.n or self.n < 1:
            raise ValueError(f"n must be an integer >= 1, got {self.n}")
        if int(self.d) != self.d or self.d < 2:
            raise ValueError(f"d must be an integer >= 2, got {self.d}")
        if not (self.m > 0):
            raise ValueError(f"m must be positive, got {self.m}")
        if not (self.Z > 0):
            raise ValueError(f"Z must be positive, got {self.Z}")
        if not (self.eps > 0):
            raise ValueError(f"eps must be positive, got {self.eps}")

    @property
    def alpha(self) -> float:
        """Homogeneity exponent alpha_n = 2*(1 - 1/n), in [0, 2)."""
        return 2.0 * (1.0 - 1.0 / self.n)


@dataclass(frozen=True, slots=True)
class PhasePoint:
    """A position/momentum pair (q, p) with q != 0."""

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float))
        object.__setattr__(self, "p", np.asarray(self.p, dtype=float))
        if self.q.shape != self.p.shape or self.q.ndim != 1:
            raise ValueError("q and p must be 1-d arrays of equal length")

    @property
    def r(self) -> float:
        return radius(self.q, np.dot(self.q, self.q))

    @property
    def radial(self) -> float:
        """<q, p>, the (scaled) radial momentum."""
        return float(np.dot(self.q, self.p))

    def require_noncollision(self) -> None:
        if self.r == 0.0:
            raise DomainError("q = 0 is outside the unregularised phase space")


@dataclass(frozen=True)
class AngularMomentum:
    """Antisymmetric d x d matrix L with entries L_ij = q_j p_i - q_i p_j."""

    matrix: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=float)
        # enforce antisymmetry structurally
        object.__setattr__(self, "matrix", 0.5 * (mat - mat.T))

    @property
    def d(self) -> int:
        return self.matrix.shape[0]

    def __getitem__(self, ij: tuple[int, int]) -> float:
        return float(self.matrix[ij])


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of matching rows (last axis), bit for bit as np.dot.

    A stacked matmul of 1 x k by k x 1 blocks takes the same dot kernel as
    np.dot on each row, whatever the number of rows; a sum or einsum
    rounds differently, and a matrix-vector product depends on the shape.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


# the smallest normal float: a <q,q> below it has lost digits
_TINY = float(np.finfo(float).tiny)


def radius_rows(q: np.ndarray, qq: np.ndarray) -> np.ndarray:
    """||q|| of each row of a (k, d) array q from qq = <q,q>.  Where qq is
    not a normal float (|q| below about 1.5e-154) and q is not 0, sqrt(qq)
    has lost digits or reads 0: r is then taken from q scaled by a power
    of two, which is exact."""
    r = np.sqrt(qq)
    small = qq < _TINY
    if small.any():
        k = -np.frexp(np.abs(q[small]).max(axis=1))[1]
        scaled = np.ldexp(q[small], k[:, None])
        r[small] = np.ldexp(np.sqrt(row_dot(scaled, scaled)), -k)
    return r


def radius(q: np.ndarray, qq) -> float:
    """`radius_rows` of one state, bit for bit; in floats where qq is normal."""
    return math.sqrt(qq) if qq >= _TINY else float(radius_rows(q[None], np.array([qq]))[0])


def potential(params: ModelParams, q: np.ndarray) -> float:
    """U_n(q) = Z * ||q||**(-alpha_n).  Constant Z for n = 1."""
    r = radius(q, np.dot(q, q))
    if r == 0.0:
        raise DomainError("potential undefined at q = 0")
    return params.Z * inverse_power(r, params.alpha)


def inverse_power(r: float, alpha: float) -> float:
    """r**(-alpha) for a float r > 0, inf where it overflows (Python's
    float power raises OverflowError there)."""
    try:
        return r ** (-alpha)
    except OverflowError:
        return np.inf


def hamiltonian(params: ModelParams, x: PhasePoint) -> float:
    """Total energy ||p||**2 / (2 m) - U_n(q)."""
    x.require_noncollision()
    return float(np.dot(x.p, x.p)) / (2.0 * params.m) - potential(params, x.q)


def _canonical(
    params: ModelParams, q: np.ndarray, p: np.ndarray, r: float
) -> tuple[np.ndarray, np.ndarray]:
    """dq = p/m, dp = -alpha_n Z q r**(-alpha_n - 2) with r = ||q|| > 0.
    Raises DomainError where r**(-alpha_n - 2) leaves the float range for
    n >= 2; for n = 1 the force is 0 at every r."""
    try:
        power = r ** (-params.alpha - 2.0)
    except OverflowError:
        if params.n > 1:
            raise DomainError(f"the force at q={q.tolist()} is beyond the float range") from None
        power = 0.0
    return p / params.m, -params.alpha * params.Z * q * power


def vector_field(params: ModelParams, x: PhasePoint) -> tuple[np.ndarray, np.ndarray]:
    """Canonical equations: dq = p/m, dp = -alpha_n Z q ||q||**(-alpha_n - 2)."""
    x.require_noncollision()
    return _canonical(params, x.q, x.p, x.r)


def physical_field(params: ModelParams):
    """`vector_field` on flat state vectors y = (q, p), as the integrator calls it."""
    d = params.d

    def field(t, y):
        q, p = y[:d], y[d:]
        r = radius(q, np.dot(q, q))
        if r == 0.0:
            raise DomainError("q = 0 is outside the unregularised phase space")
        return np.concatenate(_canonical(params, q, p, r))

    return field


def angular_momentum(x: PhasePoint) -> AngularMomentum:
    """L_ij = q_j p_i - q_i p_j (rank <= 2, antisymmetric)."""
    mat = np.outer(x.p, x.q) - np.outer(x.q, x.p)
    return AngularMomentum(mat)


def l_squared(L: AngularMomentum) -> float:
    """Scalar invariant (1/2) tr(L L^T) = sum_{i<j} L_ij**2."""
    return 0.5 * float(np.sum(L.matrix * L.matrix))


def l_squared_point(x: PhasePoint) -> float:
    """||q||^2 ||p||^2 - <q,p>^2, the Lagrange-identity form of the invariant.

    Where <q,q> or <p,p> could overflow or lose digits below the normal
    floats, q and p are scaled by powers of two first, which is exact."""
    if math.hypot(*x.q.tolist(), *x.p.tolist()) < 1.3e154:
        qq, pp, qp = float(np.dot(x.q, x.q)), float(np.dot(x.p, x.p)), float(np.dot(x.q, x.p))
        if qq >= _TINY and pp >= _TINY:
            return qq * pp - qp * qp
    a, b = (-math.frexp(float(np.abs(v).max(initial=0.0)))[1] for v in (x.q, x.p))
    q, p = np.ldexp(x.q, a), np.ldexp(x.p, b)
    scaled = float(np.dot(q, q)) * float(np.dot(p, p)) - float(np.dot(q, p)) ** 2
    with np.errstate(over="ignore"):  # an l**2 beyond the float range reads inf
        return float(np.ldexp(scaled, -2 * (a + b)))


def radial_convexity(params: ModelParams, x: PhasePoint) -> float:
    """d/dt <q, p> = ||p||**2/m - alpha_n Z ||q||**(-alpha_n).

    Strictly positive on the chart domain; equals
    2 H + (2 Z / n) ||q||**(-alpha_n) by the energy identity.
    """
    x.require_noncollision()
    pp = float(np.dot(x.p, x.p))
    return pp / params.m - params.alpha * params.Z * x.r ** (-params.alpha)
