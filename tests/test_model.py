import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcgehee.model import (
    DomainError,
    ModelParams,
    PhasePoint,
    angular_momentum,
    hamiltonian,
    l_squared,
    l_squared_point,
    physical_field,
    potential,
    radial_convexity,
    vector_field,
)


def vec(d, lo=-5.0, hi=5.0):
    return st.lists(
        st.floats(lo, hi, allow_nan=False, allow_infinity=False), min_size=d, max_size=d
    ).map(np.array)


class TestModelParams:
    def test_alpha_values(self):
        assert ModelParams(n=1, d=2).alpha == 0.0
        assert ModelParams(n=2, d=2).alpha == 1.0
        assert ModelParams(n=4, d=2).alpha == 1.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=0, d=2),
            dict(n=2, d=1),
            dict(n=2, d=2, m=0.0),
            dict(n=2, d=2, Z=-1.0),
            dict(n=2, d=2, eps=0.0),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ModelParams(**kwargs)


class TestPotential:
    def test_free_case_is_constant(self):
        params = ModelParams(n=1, d=2, Z=3.0)
        assert potential(params, np.array([0.5, 0.0])) == 3.0
        assert potential(params, np.array([17.0, -2.0])) == 3.0

    def test_kepler_case(self):
        params = ModelParams(n=2, d=2, Z=2.0)
        assert potential(params, np.array([0.5, 0.0])) == pytest.approx(4.0)

    def test_collision_rejected(self):
        params = ModelParams(n=2, d=2)
        with pytest.raises(DomainError):
            potential(params, np.zeros(2))

    def test_force_scaling(self):
        # dp = -grad U scales like r^(-alpha-1) and points at the origin
        params = ModelParams(n=3, d=2, Z=1.0)
        q = np.array([0.3, 0.4])
        x = PhasePoint(q, np.zeros(2))
        _, dp = vector_field(params, x)
        r = 0.5
        expected_mag = params.alpha * params.Z * r ** (-params.alpha - 1.0)
        assert np.linalg.norm(dp) == pytest.approx(expected_mag)
        assert np.dot(dp, q) < 0.0

    def test_gradient_matches_finite_difference(self):
        params = ModelParams(n=3, d=3)
        q = np.array([0.4, -0.2, 0.1])
        _, dp = vector_field(params, PhasePoint(q, np.zeros(3)))
        h = 1e-6
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            # H = ||p||^2/2m - U, so dp/dt = -dH/dq = +dU/dq
            fd = (potential(params, q + e) - potential(params, q - e)) / (2 * h)
            assert dp[i] == pytest.approx(fd, abs=1e-7)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("d", [2, 3])
    def test_physical_field_is_vector_field_bit_for_bit(self, n, d):
        params = ModelParams(n=n, d=d, m=1.7, Z=0.6)
        field = physical_field(params)
        rng = np.random.default_rng(10 * n + d)
        for _ in range(50):
            q = rng.normal(size=d) * 10.0 ** rng.uniform(-4, 1)
            p = rng.normal(size=d) * 10.0 ** rng.uniform(-2, 2)
            dq, dp = vector_field(params, PhasePoint(q, p))
            assert np.all(field(0.0, np.concatenate([q, p])) == np.concatenate([dq, dp]))

    def test_physical_field_rejects_collision(self):
        field = physical_field(ModelParams(n=2, d=2))
        with pytest.raises(DomainError):
            field(0.0, np.array([0.0, 0.0, 1.0, 0.0]))


class TestHamiltonian:
    def test_kepler_value(self):
        params = ModelParams(n=2, d=2, m=1.0, Z=1.0)
        x = PhasePoint(np.array([0.5, 0.0]), np.array([1.0, 1.0]))
        assert hamiltonian(params, x) == pytest.approx(1.0 - 2.0)

    def test_mass_dependence(self):
        params = ModelParams(n=2, d=2, m=4.0, Z=1.0)
        x = PhasePoint(np.array([1.0, 0.0]), np.array([2.0, 0.0]))
        assert hamiltonian(params, x) == pytest.approx(0.5 - 1.0)


class TestAngularMomentum:
    def test_planar_example(self):
        x = PhasePoint(np.array([1.0, 0.0]), np.array([0.0, 2.0]))
        L = angular_momentum(x)
        # L_ij = q_j p_i - q_i p_j
        assert L[0, 1] == pytest.approx(-2.0)
        assert L[1, 0] == pytest.approx(2.0)

    @given(q=vec(3), p=vec(3))
    @settings(max_examples=50)
    def test_antisymmetry(self, q, p):
        L = angular_momentum(PhasePoint(q, p)).matrix
        assert np.allclose(L, -L.T)

    @given(q=vec(4), p=vec(4))
    @settings(max_examples=50)
    def test_lagrange_identity(self, q, p):
        x = PhasePoint(q, p)
        scale = max(1.0, np.dot(q, q) * np.dot(p, p))
        assert l_squared(angular_momentum(x)) == pytest.approx(
            l_squared_point(x), abs=1e-9 * scale
        )

    def test_rotation_covariance(self):
        rng = np.random.default_rng(3)
        mat = rng.normal(size=(3, 3))
        R, _ = np.linalg.qr(mat)
        q = rng.normal(size=3)
        p = rng.normal(size=3)
        L = angular_momentum(PhasePoint(q, p)).matrix
        LR = angular_momentum(PhasePoint(R @ q, R @ p)).matrix
        assert np.allclose(LR, R @ L @ R.T, atol=1e-12)
        assert l_squared(angular_momentum(PhasePoint(R @ q, R @ p))) == pytest.approx(
            l_squared(angular_momentum(PhasePoint(q, p)))
        )

    def test_collinear_gives_zero(self):
        x = PhasePoint(np.array([1.0, 2.0]), np.array([2.0, 4.0]))
        assert l_squared(angular_momentum(x)) == pytest.approx(0.0, abs=1e-14)


class TestRadialConvexity:
    def test_energy_identity(self):
        # d/dt <q,p> = 2H + (2Z/n) r^(-alpha)
        params = ModelParams(n=3, d=2, m=1.3, Z=0.7)
        x = PhasePoint(np.array([0.2, 0.1]), np.array([3.0, -1.0]))
        lhs = radial_convexity(params, x)
        H = hamiltonian(params, x)
        rhs = 2.0 * H + (2.0 * params.Z / params.n) * x.r ** (-params.alpha)
        assert lhs == pytest.approx(rhs)
        assert lhs == pytest.approx(
            np.dot(x.p, x.p) / params.m
            - params.alpha * params.Z * x.r ** (-params.alpha)
        )
