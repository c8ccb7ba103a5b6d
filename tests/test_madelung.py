import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualwave.core import (
    ComplexField,
    DualParams,
    Grid1D,
    RealField,
)
from dualwave.madelung import (
    DegenerateWavefunctionError,
    clamped_count,
    from_wavefunction,
    to_wavefunction,
)
from dualwave.scenarios import DEFAULT_GRID, builtin_by_name, expand

GRID = Grid1D(256, 0.0, 2.0 * math.pi)
P = DualParams(masses=(1.0, 1.0))


class TestForwardMap:
    def test_zero_action_gives_unity(self):
        psi = to_wavefunction(RealField.zeros(GRID), RealField.zeros(GRID), P)
        assert np.max(np.abs(psi.values - 1.0)) == 0.0

    def test_linear_phase_gives_plane_wave(self):
        k = 3
        s0 = RealField(P.zeta * k * GRID.x, GRID)
        psi = to_wavefunction(s0, RealField.zeros(GRID), P)
        assert np.max(np.abs(psi.values - np.exp(1j * k * GRID.x))) < 1e-12

    def test_constant_s1_encodes_amplitude(self):
        amp = 2.5
        s1 = RealField(np.full(256, -P.zeta * math.log(amp)), GRID)
        psi = to_wavefunction(RealField.zeros(GRID), s1, P)
        assert np.max(np.abs(psi.values - amp)) < 1e-12

    @given(st.floats(-3, 3), st.floats(-2, 2))
    @settings(max_examples=25, deadline=None)
    def test_modulus_is_exp_of_minus_s1(self, a, b):
        s0 = RealField(a * np.sin(GRID.x), GRID)
        s1 = RealField(b * np.cos(2 * GRID.x), GRID)
        psi = to_wavefunction(s0, s1, P)
        assert np.max(np.abs(np.abs(psi.values)
                             - np.exp(-s1.values / P.zeta))) < 1e-12

    def test_conjugation_under_phase_flip(self):
        s0 = RealField(0.7 * np.sin(GRID.x), GRID)
        s1 = RealField(0.2 * np.cos(GRID.x), GRID)
        plus = to_wavefunction(s0, s1, P)
        minus = to_wavefunction(RealField(-s0.values, GRID), s1, P)
        assert np.array_equal(minus.values, np.conj(plus.values))

    def test_gauge_shift_by_two_pi_hbar(self):
        # the gauge period is 2*pi*zeta, the one action scale
        s0 = RealField(0.7 * np.sin(GRID.x), GRID)
        s1 = RealField(0.2 * np.cos(GRID.x), GRID)
        base = to_wavefunction(s0, s1, P)
        shifted = to_wavefunction(
            RealField(s0.values + 2 * math.pi * P.zeta, GRID), s1, P)
        assert np.max(np.abs(base.values - shifted.values)) < 1e-12


class TestInverseMap:
    def test_plane_wave_recovery(self):
        k = 3
        psi = ComplexField(np.exp(1j * k * GRID.x), GRID)
        res = from_wavefunction(psi, P)
        # linear phase recovered up to a global multiple of 2*pi*zeta
        offset = res.s0.values - P.zeta * k * GRID.x
        shift = 2 * math.pi * P.zeta * round(offset[0] / (2 * math.pi * P.zeta))
        assert np.max(np.abs(offset - shift)) < 1e-10
        assert np.max(np.abs(res.s1.values)) < 1e-10

    def test_real_gaussian_recovery(self):
        grid = Grid1D(1024, -10.0, 10.0)
        sigma = 1.0
        amp = 0.8 * np.exp(-grid.x ** 2 / (4 * sigma ** 2))
        res = from_wavefunction(ComplexField(amp, grid), P)
        mask = amp > 1e-5 * amp.max()
        assert np.max(np.abs(res.s0.values[mask])) < 1e-10
        assert np.max(np.abs(res.s1.values + P.zeta * np.log(amp))[mask]) < 1e-10

    def test_round_trip(self):
        s0 = RealField(0.3 * np.sin(GRID.x) + 0.1 * np.cos(2 * GRID.x), GRID)
        s1 = RealField(0.2 + 0.4 * np.cos(GRID.x), GRID)
        res = from_wavefunction(to_wavefunction(s0, s1, P), P)
        assert np.max(np.abs(res.s0.values - s0.values)) < 1e-10
        assert np.max(np.abs(res.s1.values - s1.values)) < 1e-10

    def test_forward_after_inverse_identity(self):
        psi = to_wavefunction(
            RealField(0.5 * np.sin(GRID.x), GRID),
            RealField(0.3 * np.cos(2 * GRID.x), GRID), P)
        res = from_wavefunction(psi, P)
        back = to_wavefunction(res.s0, res.s1, P)
        assert np.max(np.abs(back.values - psi.values)) < 1e-10

    def test_degenerate_wavefunction_rejected(self):
        with pytest.raises(DegenerateWavefunctionError):
            from_wavefunction(ComplexField.zeros(GRID), P)
        with pytest.raises(DegenerateWavefunctionError):
            clamped_count(ComplexField.zeros(GRID))

    def test_anchor_at_reference_index(self):
        # the unwrapped phase is anchored to its principal value at index 0
        psi = ComplexField(np.exp(1j * (3 * GRID.x + 2.5)), GRID)
        res = from_wavefunction(psi, P)
        principal = float(np.angle(psi.values[0]))
        assert res.s0.values[0] == P.zeta * principal


class TestClampedCount:
    @pytest.mark.parametrize("name, count", [
        ("free_gaussian_symmetric", 485), ("harmonic_ground_symmetric", 263),
        ("interference_two_gaussian", 229), ("plane_wave_dispersion", 0)])
    def test_initial_state_counts(self, name, count):
        # a Gaussian tail falls below (1e-12 max|psi|)^2 in |psi|^2 on the
        # default grid; a plane wave has no small sample
        psi = expand(builtin_by_name(name), DEFAULT_GRID).scenario.psi0
        assert clamped_count(psi) == count


def reference_from_wavefunction(v, zeta):
    """The one-shot inverse map as a standalone formula (np.diff increments,
    anchor at index 0, clamped floor 1e-12)."""
    amax = float(np.max(np.abs(v)))
    floor2 = (1e-12 * amax) ** 2
    rho = (v.real * v.real + v.imag * v.imag)
    s1 = -0.5 * zeta * np.log(np.maximum(rho, floor2))
    theta = np.angle(v)
    d = np.mod(np.diff(theta) + np.pi, 2.0 * np.pi) - np.pi
    unwrapped = np.empty_like(theta)
    unwrapped[0] = 0.0
    np.cumsum(d, out=unwrapped[1:])
    unwrapped = theta[0] + (unwrapped - unwrapped[0])
    return zeta * unwrapped, s1, bool(np.any(rho < floor2))


def hard_state():
    """Winding 3, an exact node, and samples near and below the amplitude floor."""
    x = GRID.x
    amp = np.exp(np.cos(x)) * np.abs(np.sin(x))  # nodes at x = 0 and pi
    amp[40] = 1e-10 * amp.max()  # above the one-shot floor 1e-12
    amp[41] = 1e-14 * amp.max()  # below it
    return amp * np.exp(1j * (3 * x + 0.4 * np.sin(2 * x)))


def bits(a):
    return np.ascontiguousarray(a).tobytes()


class TestInverseMapsMatchReferenceFormulas:
    """The inverse map must stay bitwise equal to its standalone formula."""

    @pytest.mark.parametrize("zeta", [1.0, 2.0])
    def test_one_shot_map(self, zeta):
        v = hard_state()
        res = from_wavefunction(ComplexField(v, GRID),
                                DualParams(masses=(1.0, 1.0), zeta=zeta))
        s0, s1, floored = reference_from_wavefunction(v, zeta)
        assert bits(res.s0.values) == bits(s0)
        assert bits(res.s1.values) == bits(s1)
        assert floored  # the state reaches the clamp
        # the unwrapped phase keeps the winding: 3 turns across the domain
        assert round((s0[-1] - s0[0]) / (2 * math.pi * zeta)) == 3


@given(st.lists(st.floats(-0.5, 0.5), min_size=4, max_size=4),
       st.lists(st.floats(-0.5, 0.5), min_size=4, max_size=4))
@settings(max_examples=30, deadline=None)
def test_round_trip_on_random_band_limited_actions(c0, c1):
    # adjacent-sample phase jumps stay below pi for these mode numbers and
    # amplitudes, so the cumulative unwrap must invert exactly
    x = GRID.x
    s0_vals = sum(c * np.sin((i + 1) * x) for i, c in enumerate(c0))
    s1_vals = sum(c * np.cos((i + 1) * x) for i, c in enumerate(c1))
    s0 = RealField(s0_vals + np.zeros_like(x), GRID)
    s1 = RealField(s1_vals + np.zeros_like(x), GRID)
    res = from_wavefunction(to_wavefunction(s0, s1, P), P)
    offset = res.s0.values - s0.values
    shift = 2 * math.pi * P.zeta * round(float(offset[0]) / (2 * math.pi * P.zeta))
    assert np.max(np.abs(offset - shift)) < 1e-10
    assert np.max(np.abs(res.s1.values - s1.values)) < 1e-10
