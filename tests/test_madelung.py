import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualwave.core import (
    ComplexField,
    DualParams,
    Grid1D,
    Quaternion,
    RealField,
    quaternion_exp,
    spectral_derivative_values,
)
from dualwave.hamilton_jacobi import ActionChannels
from dualwave.madelung import (
    ChannelCountError,
    DegenerateWavefunctionError,
    compose_channels,
    from_wavefunction,
    to_wavefunction,
)
from dualwave.wavesolver import _extract_action_terms

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

    def test_phase_aliasing_flagged_at_nyquist(self):
        k = 128  # Nyquist mode of a 256-point grid on [0, 2*pi)
        psi = ComplexField(np.exp(1j * k * GRID.x), GRID)
        res = from_wavefunction(psi, P)
        assert "phase aliasing" in res.warnings

    def test_amplitude_floor_flagged_near_node(self):
        vals = np.abs(np.sin(GRID.x / 2.0)) + 0.0
        vals[0] = 0.0
        res = from_wavefunction(ComplexField(vals, GRID), P)
        assert "amplitude floor engaged" in res.warnings

    def test_anchor_at_reference_index(self):
        # the unwrapped phase is anchored to its principal value at index 0
        psi = ComplexField(np.exp(1j * (3 * GRID.x + 2.5)), GRID)
        res = from_wavefunction(psi, P)
        principal = float(np.angle(psi.values[0]))
        assert res.s0.values[0] == P.zeta * principal


class TestCompose:
    def test_two_channels_reduce_to_complex_case(self):
        s0 = RealField(0.3 * np.sin(GRID.x), GRID)
        s1 = RealField(0.1 * np.cos(GRID.x), GRID)
        ch = ActionChannels((s0, s1), (1.0, 1.0))
        out = compose_channels(ch, P)
        assert np.max(np.abs(out.phi.values
                             - np.array([1.0, 0, 0, 0]))) == 0.0
        assert np.array_equal(out.psi.values, out.Psi.values)

    def test_zero_jk_channels_give_unit_phi(self):
        s0 = RealField(0.3 * np.sin(GRID.x), GRID)
        s1 = RealField(0.1 * np.cos(GRID.x), GRID)
        zero = RealField.zeros(GRID)
        ch = ActionChannels((s0, s1, zero, zero), (1.0, 1.0, 1.0, 1.0))
        out = compose_channels(ch, P)
        assert np.max(np.abs(out.phi.norm() - 1.0)) < 1e-15
        assert np.max(np.abs(out.psi.values - out.Psi.values)) < 1e-15

    def test_extraction_from_Psi_ignores_environment_channels(self):
        s0 = RealField(0.3 * np.sin(GRID.x), GRID)
        s1 = RealField(0.1 * np.cos(GRID.x) + 0.5, GRID)
        s2 = RealField(0.9 * np.sin(2 * GRID.x), GRID)
        s3 = RealField(-0.4 * np.cos(3 * GRID.x), GRID)
        ch = ActionChannels((s0, s1, s2, s3), (1.0, 1.0, 1.0, 1.0))
        out = compose_channels(ch, P)
        res = from_wavefunction(out.Psi, P)
        assert np.max(np.abs(res.s0.values - s0.values)) < 1e-10
        assert np.max(np.abs(res.s1.values - s1.values)) < 1e-10

    def test_constant_s2_pinned_against_quaternion_exp(self):
        c = 0.8
        s0 = RealField(0.3 * np.sin(GRID.x), GRID)
        s1 = RealField(0.1 * np.cos(GRID.x), GRID)
        s2 = RealField(np.full(256, c), GRID)
        ch = ActionChannels((s0, s1, s2), (1.0, 1.0, 1.0))
        out = compose_channels(ch, P)
        # phi is the pointwise inverse of exp(+j c/zeta)
        expected = quaternion_exp(Quaternion(0.0, 0.0, -c / P.zeta, 0.0))
        sample = out.phi.at(31)
        assert (sample - expected).norm() < 1e-12
        assert np.max(np.abs(out.phi.norm() - 1.0)) < 1e-12

    def test_ordered_factorization_and_psi_phi_product(self):
        s0 = RealField(0.3 * np.sin(GRID.x), GRID)
        s1 = RealField(0.1 * np.cos(GRID.x), GRID)
        s2 = RealField(0.6 * np.sin(2 * GRID.x), GRID)
        s3 = RealField(0.2 * np.cos(GRID.x), GRID)
        ch = ActionChannels((s0, s1, s2, s3), (1.0, 1.0, 1.0, 1.0))
        out = compose_channels(ch, P)
        # psi * phi must reproduce Psi pointwise (quaternion product)
        prod = out.psi_quaternion * out.phi
        assert np.max(np.abs(prod.values[:, 0] - out.Psi.values.real)) < 1e-12
        assert np.max(np.abs(prod.values[:, 1] - out.Psi.values.imag)) < 1e-12
        assert np.max(np.abs(prod.values[:, 2:])) < 1e-12
        # the j-then-k ordered factorization, pinned at one sample point
        i = 77
        fj = quaternion_exp(Quaternion(0, 0, s2.values[i] / P.zeta, 0))
        fk = quaternion_exp(Quaternion(0, 0, 0, -s3.values[i] / P.zeta))
        phi_inv = fj * fk
        assert (out.phi.at(i) - phi_inv.inverse()).norm() < 1e-12

    def test_too_many_channels_rejected(self):
        fields = tuple(RealField.zeros(GRID) for _ in range(5))
        ch = ActionChannels(fields, (1.0,) * 5)
        with pytest.raises(ChannelCountError):
            compose_channels(ch, P)


def reference_from_wavefunction(v, zeta):
    """The one-shot inverse map as a standalone formula (np.diff increments,
    anchor at index 0, clamped floor 1e-12)."""
    amax = float(np.max(np.abs(v)))
    floor2 = (1e-12 * amax) ** 2
    rho = (v.real * v.real + v.imag * v.imag)
    s1 = -0.5 * zeta * np.log(np.maximum(rho, floor2))
    theta = np.angle(v)
    d = np.mod(np.diff(theta) + np.pi, 2.0 * np.pi) - np.pi
    aliased = bool(np.any(np.abs(d) >= np.pi - 1e-9))
    unwrapped = np.empty_like(theta)
    unwrapped[0] = 0.0
    np.cumsum(d, out=unwrapped[1:])
    unwrapped = theta[0] + (unwrapped - unwrapped[0])
    return zeta * unwrapped, s1, aliased, bool(np.any(rho < floor2))


def reference_extract_action_terms(v, grid, scale):
    """The slaved extraction as a standalone formula (tapered cyclic
    increments, additive floor 1e-8, periodic phase)."""
    amax = float(np.max(np.abs(v)))
    rho = v.real * v.real + v.imag * v.imag
    floor2 = (1e-8 * amax) ** 2
    engaged = bool(np.any(rho < floor2))
    trust = rho / (rho + floor2)
    s1 = -0.5 * scale * np.log(rho + floor2)
    theta = np.angle(v)
    d = np.mod(np.roll(theta, -1) - theta + np.pi, 2.0 * np.pi) - np.pi
    d *= trust * np.roll(trust, -1)
    d -= np.mean(d)
    s0_periodic = np.empty_like(theta)
    s0_periodic[0] = 0.0
    np.cumsum(d[:-1], out=s0_periodic[1:])
    s0_periodic *= scale
    lap_s0 = spectral_derivative_values(s0_periodic, grid, 2)
    lap_s1 = spectral_derivative_values(s1, grid, 2)
    return lap_s0, lap_s1, trust, engaged


def hard_state():
    """Winding 3, an exact node, and samples below each amplitude floor."""
    x = GRID.x
    amp = np.exp(np.cos(x)) * np.abs(np.sin(x))  # nodes at x = 0 and pi
    amp[40] = 1e-10 * amp.max()  # below the slaved floor 1e-8 only
    amp[41] = 1e-14 * amp.max()  # below both floors
    return amp * np.exp(1j * (3 * x + 0.4 * np.sin(2 * x)))


def bits(a):
    return np.ascontiguousarray(a).tobytes()


class TestInverseMapsMatchReferenceFormulas:
    """Both inverse maps take their increments from one helper,
    `wrapped_phase_differences`; each must stay bitwise equal to its
    standalone formula."""

    @pytest.mark.parametrize("zeta", [1.0, 2.0])
    def test_one_shot_map(self, zeta):
        v = hard_state()
        res = from_wavefunction(ComplexField(v, GRID),
                                DualParams(masses=(1.0, 1.0), zeta=zeta))
        s0, s1, aliased, floored = reference_from_wavefunction(v, zeta)
        assert bits(res.s0.values) == bits(s0)
        assert bits(res.s1.values) == bits(s1)
        assert ("phase aliasing" in res.warnings) == aliased
        assert ("amplitude floor engaged" in res.warnings) == floored
        assert floored
        # the unwrapped phase keeps the winding: 3 turns across the domain
        assert round((s0[-1] - s0[0]) / (2 * math.pi * zeta)) == 3

    @pytest.mark.parametrize("zeta", [1.0, 2.0])
    def test_slaved_extraction(self, zeta):
        v = hard_state()
        got = _extract_action_terms(v, GRID, zeta)
        ref = reference_extract_action_terms(v, GRID, zeta)
        for a, b in zip(got[:3], ref[:3]):
            assert bits(a) == bits(b)
        assert bool(got[3]) is ref[3] is True

    def test_zero_state_raises_one_error_on_both_paths(self):
        zero = ComplexField.zeros(GRID)
        with pytest.raises(DegenerateWavefunctionError):
            from_wavefunction(zero, P)
        with pytest.raises(DegenerateWavefunctionError):
            _extract_action_terms(zero.values, GRID, 1.0)


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


def test_precomposed_Psi_feeds_the_wave_solver():
    # multi-channel runs hand the solver a pre-composed Psi; with the j/k
    # channels nonzero Psi still depends only on (S0, S1) and evolves like
    # any complex wavefunction
    from dualwave.core import field_norm
    from dualwave.hamilton_jacobi import PotentialSet
    from dualwave.wavesolver import WaveScenario, evolve, schrodinger_reference

    s0 = RealField(0.2 * np.sin(GRID.x), GRID)
    s1 = RealField(0.5 - 0.3 * np.cos(GRID.x), GRID)
    s2 = RealField(0.7 * np.sin(2 * GRID.x), GRID)
    s3 = RealField(-0.2 * np.cos(GRID.x), GRID)
    ch = ActionChannels((s0, s1, s2, s3), (1.0, 1.0, 1.0, 1.0))
    composed = compose_channels(ch, P)
    psi0 = ComplexField(
        composed.Psi.values / math.sqrt(field_norm(composed.Psi)), GRID)
    scenario = WaveScenario(psi0=psi0, params=P,
                            potentials=PotentialSet.zeros(GRID, 2),
                            dt=1e-3, n_steps=100, snapshot_every=100)
    run = evolve(scenario)
    ref = schrodinger_reference(psi0, None, 1.0, 1.0, 1e-3, 100, 100)
    assert np.max(np.abs(run.final.psi.values - ref.final.psi.values)) < 1e-10
