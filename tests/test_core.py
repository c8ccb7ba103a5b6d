import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualwave.core import (
    BlowUpError,
    ComplexField,
    ConfigurationError,
    DualParams,
    Grid1D,
    field_norm,
    spectral_derivative_values,
)
from dualwave.hamilton_jacobi import HJTrajectory
from dualwave.scenarios import Integration, ScenarioSpec
from dualwave.wavesolver import Snapshot, WaveRun

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

    @pytest.mark.parametrize("x_min, x_max", [
        (-1e308, 1e308), (-math.inf, 0.0), (0.0, 1e-310), (0.0, 5e-324), (0.0, 1e-300)])
    def test_rejects_domain_outside_the_float_range(self, x_min, x_max):
        # the length, or the squared Nyquist wavenumber (pi/dx)^2 that the
        # second-derivative multipliers reach, is not finite
        with pytest.raises(ConfigurationError, match="float range"):
            Grid1D(1024, x_min, x_max)


def derivative(values, order):
    """spectral_derivative_values on GRID_2PI."""
    return spectral_derivative_values(values, GRID_2PI, order)


class TestSpectralDerivative:
    """Real samples take the rfft path and complex samples the fft path;
    each value check runs on both."""

    def test_sin_to_cos(self):
        f = np.sin(GRID_2PI.x)
        for values in (f, f.astype(complex)):
            d = derivative(values, 1)
            assert np.max(np.abs(d - np.cos(GRID_2PI.x))) < 1e-10
        assert not np.iscomplexobj(derivative(f, 1))

    def test_constant_derivative_is_zero(self):
        for order in (1, 2):
            f = np.full(64, 2.7)
            for values in (f, f.astype(complex)):
                assert np.max(np.abs(derivative(values, order))) < 1e-13

    def test_uniform_stack_derivative_is_exactly_zero(self):
        # evolve_hj steps uniform channels without a transform: on every
        # power-of-two grid their spectral derivatives are 0, bit for bit
        values = [0.0, 1.0, -1.0, 0.1, -0.3, 1.0 / 3.0, math.pi, -2.5e-300,
                  5e-324, 1e-15, 7.5, -123.456, 2.0 ** 53 + 2.0, 1e17, -6e22,
                  1e100, -3.7e150, 1e200, -1e250, 1e300, -1e300, 4.2e-200, 0.7]
        for k in range(1, 15):
            grid = Grid1D(2 ** k, -3.0, 5.0)
            for a, b in zip(values, values[::-1]):
                stack = np.array([[a], [b]]) * np.ones(grid.n_points)
                for order in (1, 2):
                    assert np.all(spectral_derivative_values(stack, grid, order) == 0.0)

    def test_second_derivative_of_mode(self):
        f = np.exp(3j * GRID_2PI.x)
        err = np.max(np.abs(derivative(f, 2) + 9.0 * f)) / 9.0
        assert err < 1e-10
        # the real and imaginary parts on the real path
        for part in (f.real, f.imag):
            assert np.max(np.abs(derivative(part, 2) + 9.0 * part)) / 9.0 < 1e-10

    @given(st.lists(st.floats(-3, 3), min_size=6, max_size=6),
           st.floats(-2, 2), st.floats(-2, 2))
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, coeffs, alpha, beta):
        x = GRID_2PI.x
        f = (coeffs[0] * np.sin(x) + coeffs[1] * np.cos(2 * x)
             + coeffs[2] * np.sin(3 * x))
        g = coeffs[3] * np.cos(x) + coeffs[4] * np.sin(4 * x) + coeffs[5]
        for u, w in ((f, g), (f.astype(complex), 1j * g)):
            lhs = derivative(alpha * u + beta * w, 1)
            rhs = alpha * derivative(u, 1) + beta * derivative(w, 1)
            assert np.max(np.abs(lhs - rhs)) < 1e-12 * (1 + np.max(np.abs(rhs)))

    def test_second_equals_first_twice_on_band_limited(self):
        x = GRID_2PI.x
        f = np.sin(2 * x) + 0.3 * np.cos(5 * x)
        for values in (f, f + 0.5j * np.cos(3 * x)):
            once_twice = derivative(derivative(values, 1), 1)
            direct = derivative(values, 2)
            assert np.max(np.abs(once_twice - direct)) < 1e-10


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


class TestBlowUpError:
    # a criterion that blows up on a worker process reaches the caller pickled
    def _round_trip(self, partial):
        err = BlowUpError("blow-up at step 3", step=3, partial=partial)
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is BlowUpError
        assert (str(back), back.step) == ("blow-up at step 3", 3)
        return back.partial

    def test_partial_wave_run(self):
        psi = ComplexField(np.exp(1j * GRID_2PI.x), GRID_2PI)
        run = WaveRun([Snapshot(0.0, psi), Snapshot(0.5, psi)])
        back = self._round_trip(run)
        assert [s.t for s in back.snapshots] == [0.0, 0.5]
        np.testing.assert_array_equal(back.final.psi.values, psi.values)

    def test_partial_hj_trajectory(self):
        samples = np.stack([np.sin(GRID_2PI.x), np.cos(GRID_2PI.x)])
        traj = HJTrajectory([0.0], [samples], [-samples[::-1]])
        back = self._round_trip(traj)
        assert back.times == [0.0]
        np.testing.assert_array_equal(back.samples[0], samples)
        np.testing.assert_array_equal(back.gradients[0], -samples[::-1])

    def test_without_partial(self):
        assert self._round_trip(None) is None


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
