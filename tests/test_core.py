import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualwave.core import (
    ComplexField,
    ConfigurationError,
    DualParams,
    Grid1D,
    NonFiniteFieldError,
    Quaternion,
    RealField,
    field_norm,
    quaternion_exp,
    spectral_derivative,
)
from dualwave.scenarios import Integration, ScenarioSpec

GRID_2PI = Grid1D(64, 0.0, 2.0 * math.pi)


class TestGrid:
    def test_samples_and_spacing(self):
        g = Grid1D(8, -1.0, 1.0)
        assert g.dx == pytest.approx(0.25)
        assert np.allclose(g.x, -1.0 + 0.25 * np.arange(8))

    @pytest.mark.parametrize("n", [0, 3, 12, 1000])
    def test_rejects_non_power_of_two(self, n):
        with pytest.raises(ConfigurationError):
            Grid1D(n, 0.0, 1.0)

    def test_rejects_empty_domain(self):
        with pytest.raises(ConfigurationError):
            Grid1D(8, 1.0, 1.0)


class TestSpectralDerivative:
    def test_sin_to_cos(self):
        f = RealField(np.sin(GRID_2PI.x), GRID_2PI)
        d = spectral_derivative(f, 1)
        assert np.max(np.abs(d.values - np.cos(GRID_2PI.x))) < 1e-10

    def test_constant_derivative_is_zero(self):
        for order in (1, 2):
            f = RealField(np.full(64, 2.7), GRID_2PI)
            assert np.max(np.abs(spectral_derivative(f, order).values)) < 1e-13

    def test_second_derivative_of_mode(self):
        f = ComplexField(np.exp(3j * GRID_2PI.x), GRID_2PI)
        d2 = spectral_derivative(f, 2)
        err = np.max(np.abs(d2.values + 9.0 * f.values)) / 9.0
        assert err < 1e-10

    def test_rejects_bad_order(self):
        f = RealField.zeros(GRID_2PI)
        with pytest.raises(ValueError):
            spectral_derivative(f, 3)

    def test_rejects_non_finite(self):
        vals = np.zeros(64)
        vals[5] = np.nan
        with pytest.raises(NonFiniteFieldError):
            spectral_derivative(RealField(vals, GRID_2PI), 1)

    @given(st.lists(st.floats(-3, 3), min_size=6, max_size=6),
           st.floats(-2, 2), st.floats(-2, 2))
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, coeffs, alpha, beta):
        x = GRID_2PI.x
        f = RealField(coeffs[0] * np.sin(x) + coeffs[1] * np.cos(2 * x)
                      + coeffs[2] * np.sin(3 * x), GRID_2PI)
        g = RealField(coeffs[3] * np.cos(x) + coeffs[4] * np.sin(4 * x)
                      + coeffs[5], GRID_2PI)
        combo = RealField(alpha * f.values + beta * g.values, GRID_2PI)
        lhs = spectral_derivative(combo, 1).values
        rhs = (alpha * spectral_derivative(f, 1).values
               + beta * spectral_derivative(g, 1).values)
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * (1 + np.max(np.abs(rhs)))

    def test_second_equals_first_twice_on_band_limited(self):
        x = GRID_2PI.x
        f = RealField(np.sin(2 * x) + 0.3 * np.cos(5 * x), GRID_2PI)
        once_twice = spectral_derivative(spectral_derivative(f, 1), 1)
        direct = spectral_derivative(f, 2)
        assert np.max(np.abs(once_twice.values - direct.values)) < 1e-10


class TestFieldNorm:
    def test_unit_constant_on_unit_interval(self):
        g = Grid1D(128, 0.0, 1.0)
        assert abs(field_norm(ComplexField(np.ones(128), g)) - 1.0) < 1e-13

    def test_zero_field(self):
        assert field_norm(ComplexField.zeros(GRID_2PI)) == 0.0

    def test_normalized_gaussian(self):
        g = Grid1D(1024, -10.0, 10.0)
        sigma = 0.5
        amp = (2.0 * math.pi * sigma ** 2) ** -0.25
        psi = ComplexField(amp * np.exp(-g.x ** 2 / (4 * sigma ** 2)), g)
        assert abs(field_norm(psi) - 1.0) < 1e-10


class TestQuaternion:
    def test_unit_table(self):
        i = Quaternion(0, 1, 0, 0)
        j = Quaternion(0, 0, 1, 0)
        k = Quaternion(0, 0, 0, 1)
        minus_one = Quaternion(-1, 0, 0, 0)
        assert i * i == minus_one
        assert j * j == minus_one
        assert k * k == minus_one
        assert i * j == k
        assert j * k == i
        assert k * i == j
        assert i * j * k == minus_one
        assert j * i == -k
        assert k * j == -i
        assert i * k == -j

    @given(*(st.floats(-5, 5) for _ in range(8)))
    @settings(max_examples=50, deadline=None)
    def test_norm_multiplicative(self, a, b, c, d, e, f, g, h):
        q1 = Quaternion(a, b, c, d)
        q2 = Quaternion(e, f, g, h)
        lhs = (q1 * q2).norm()
        rhs = q1.norm() * q2.norm()
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)

    def test_exp_of_zero(self):
        assert quaternion_exp(Quaternion(0, 0, 0, 0)) == Quaternion(1, 0, 0, 0)

    def test_exp_euler_identity(self):
        q = quaternion_exp(Quaternion(0, math.pi, 0, 0))
        assert (q - Quaternion(-1, 0, 0, 0)).norm() < 1e-12

    def test_exp_ln2_j_halfpi(self):
        q = quaternion_exp(Quaternion(math.log(2), 0, math.pi / 2, 0))
        assert (q - Quaternion(0, 0, 2, 0)).norm() < 1e-12

    @given(st.floats(-3, 3), st.floats(-10, 10))
    @settings(max_examples=50, deadline=None)
    def test_exp_matches_complex_in_wx_plane(self, w, theta):
        q = quaternion_exp(Quaternion(w, theta, 0, 0))
        z = np.exp(w + 1j * theta)
        assert abs(q.w - z.real) < 1e-12 * max(1.0, abs(z))
        assert abs(q.x - z.imag) < 1e-12 * max(1.0, abs(z))
        assert q.y == 0.0 and q.z == 0.0

    def test_inverse(self):
        q = Quaternion(1.0, -2.0, 0.5, 3.0)
        r = q * q.inverse()
        assert (r - Quaternion(1, 0, 0, 0)).norm() < 1e-14


class TestDualParams:
    def test_reduced_and_residual(self):
        p = DualParams(masses=(1.0, 2.0))
        assert p.reduced_mass == pytest.approx(2.0 / 3.0)
        assert p.residual_inv_mass == pytest.approx(0.5)

    def test_symmetric_masses(self):
        p = DualParams(masses=(1.5, 1.5))
        assert p.residual_inv_mass == 0.0

    def test_zeta_defaults_to_hbar(self):
        # zeta is the only action scale of the solvers; hbar survives only
        # as the scenario-level default of zeta
        assert DualParams(masses=(1, 1)).zeta == 1.0
        assert DualParams(masses=(1, 1), zeta=0.7).zeta == 0.7
        spec = ScenarioSpec(name="s", kind="wave",
                            integration=Integration(1e-3, 1), hbar=2.5)
        assert spec.dual_params().zeta == 2.5
        assert dataclasses.replace(spec, zeta=0.7).dual_params().zeta == 0.7

    def test_rejects_bad_params(self):
        with pytest.raises(ConfigurationError):
            DualParams(masses=(1.0,))
        with pytest.raises(ConfigurationError):
            DualParams(masses=(1.0, -1.0))
        with pytest.raises(ConfigurationError):
            DualParams(masses=(1.0, 1.0), zeta=0.0)
        for bad in (math.inf, math.nan):
            for kwargs in ({"masses": (1.0, bad)}, {"masses": (bad, 1.0)},
                           {"masses": (1.0, 1.0), "zeta": bad}):
                with pytest.raises(ConfigurationError):
                    DualParams(**kwargs)

    @pytest.mark.parametrize("hbar", [0.0, -1.0, math.inf, math.nan])
    @pytest.mark.parametrize("zeta", [None, 1.0])
    def test_scenario_rejects_bad_hbar_with_or_without_zeta(self, hbar, zeta):
        spec = ScenarioSpec(name="s", kind="wave",
                            integration=Integration(1e-3, 1),
                            hbar=hbar, zeta=zeta)
        with pytest.raises(ConfigurationError, match="hbar"):
            spec.dual_params()
