import numpy as np
import pytest

from dualwave.core import (
    BlowUpError,
    ConfigurationError,
    DualParams,
    Grid1D,
    RealField,
    spectral_derivative_values,
)
from dualwave.hamilton_jacobi import (
    EXPLICIT,
    SYMMETRIC_CLOSURE,
    ActionChannels,
    PotentialSet,
    _hj_rhs_values,
    closure_couplings,
    evolve_hj,
    participation_metric,
)

GRID = Grid1D(256, -10.0, 10.0)
P_EQUAL = DualParams(masses=(1.0, 1.0))


def smooth_pair(grid=GRID):
    x, L = grid.x, grid.length
    s0 = 0.8 * np.sin(2 * np.pi * x / L) + 0.3 * np.cos(2 * np.pi * 2 * x / L)
    s1 = -0.5 * np.cos(2 * np.pi * x / L) + 0.2 * np.sin(2 * np.pi * 3 * x / L)
    return RealField(s0, grid), RealField(s1, grid)


def hj_rhs(S, pot, p):
    """The rows of `_hj_rhs_values`, the right-hand side evolve_hj steps."""
    out, _ = _hj_rhs_values(S.values_stack(), np.reshape(S.slopes, (-1, 1)),
                            pot, p, S.grid)
    return list(out)


class TestActionChannels:
    def test_requires_two_channels(self):
        with pytest.raises(ValueError):
            ActionChannels((RealField.zeros(GRID),))

    def test_mass_count_must_match(self):
        # the channel masses are the run's DualParams masses, one per channel
        ch = ActionChannels((RealField.zeros(GRID), RealField.zeros(GRID)))
        with pytest.raises(ConfigurationError, match="need 2 masses, got 3"):
            evolve_hj(ch, PotentialSet.zeros(GRID, 2),
                      DualParams(masses=(1.0, 1.0, 1.0)), 1e-3, 1)

    def test_gradient_includes_slope(self):
        ch = ActionChannels((RealField.zeros(GRID), RealField.zeros(GRID)),
                            (2.5, 0.0))
        assert np.allclose(ch.gradient(0), 2.5, rtol=0, atol=1e-15)
        assert np.allclose(ch.total_samples(0), 2.5 * GRID.x, rtol=0, atol=0)


class TestDualRhs:
    def test_decoupled_limit(self):
        s0, _ = smooth_pair()
        vg0 = RealField(0.1 * GRID.x ** 2, GRID)
        vg1 = RealField(np.full(256, 0.7), GRID)
        pot = PotentialSet((vg0, vg1), None)
        ch = ActionChannels((s0, RealField.zeros(GRID)))
        ds0, ds1 = hj_rhs(ch, pot, DualParams(masses=(1.0, 2.0)))
        g0 = ch.gradient(0)
        assert np.max(np.abs(ds0 + (g0 ** 2 / 2.0 + vg0.values))) < 1e-12
        assert np.max(np.abs(ds1 + vg1.values)) < 1e-14

    def test_free_particle_residual(self):
        ch = ActionChannels((RealField.zeros(GRID), RealField.zeros(GRID)),
                            (1.3, 0.0))
        ds0, ds1 = hj_rhs(ch, PotentialSet.zeros(GRID, 2), P_EQUAL)
        assert np.max(np.abs(ds0 + 1.3 ** 2 / 2.0)) < 1e-10
        assert np.max(np.abs(ds1)) < 1e-10

    def test_exchange_regression_pinned(self):
        # deterministic smooth pair; values frozen from a verified run.
        # with V = 0 the first equation is antisymmetric under full sector
        # exchange and the second symmetric.
        s0, s1 = smooth_pair()
        pot = PotentialSet.zeros(GRID, 2)
        ch = ActionChannels((s0, s1))
        ds0, ds1 = hj_rhs(ch, pot, DualParams(masses=(1.0, 2.0)))
        expected = {
            0: (-0.022700090122505633, -0.03553057584392144),
            50: (-0.020811549022183972, 0.002111021206865916),
            200: (0.016475413808127982, -0.004483932393196775),
        }
        for i, (e0, e1) in expected.items():
            assert ds0[i] == pytest.approx(e0, rel=1e-12)
            assert ds1[i] == pytest.approx(e1, rel=1e-12)
        swapped = ActionChannels((s1, s0))
        es0, es1 = hj_rhs(swapped, pot, DualParams(masses=(2.0, 1.0)))
        assert np.max(np.abs(es0 + ds0)) < 1e-14
        assert np.max(np.abs(es1 - ds1)) < 1e-14


class TestMultiRhs:
    def test_constant_fields_give_zero(self):
        fields = tuple(RealField(np.full(256, c), GRID) for c in (1.0, -2.0, 0.5))
        ch = ActionChannels(fields)
        out = hj_rhs(ch, PotentialSet.zeros(GRID, 3),
                     DualParams(masses=(1.0, 2.0, 0.5)))
        for field in out:
            assert np.max(np.abs(field)) < 1e-13

    def test_linear_channels_hand_values(self):
        a = (0.7, -0.4, 1.1, 0.3)
        masses = (1.0, 2.0, 0.5, 1.5)
        ch = ActionChannels(tuple(RealField.zeros(GRID) for _ in a), a)
        out = hj_rhs(ch, PotentialSet.zeros(GRID, 4),
                     DualParams(masses=masses))
        env = sum(a[n] ** 2 / (2 * masses[n]) for n in range(1, 4))
        expect0 = -(a[0] ** 2 / (2 * masses[0]) - env)
        assert np.max(np.abs(out[0] - expect0)) < 1e-14
        for n in range(1, 4):
            expect = -(a[0] * a[n] / (2 * masses[0]) + a[0] * a[n] / (2 * masses[n]))
            assert np.max(np.abs(out[n] - expect)) < 1e-14

    def test_constant_offset_invariance(self):
        s0, s1 = smooth_pair()
        pot = PotentialSet.zeros(GRID, 2)
        p = DualParams(masses=(1.0, 2.0))
        base = hj_rhs(ActionChannels((s0, s1)), pot, p)
        shifted = hj_rhs(ActionChannels(
            (RealField(s0.values + 5.0, GRID), s1)), pot, p)
        for b, s in zip(base, shifted):
            assert np.max(np.abs(b - s)) < 1e-12

    def test_translation_equivariance(self):
        s0, s1 = smooth_pair()
        pot = PotentialSet.zeros(GRID, 2)
        p = DualParams(masses=(1.0, 2.0))
        base = hj_rhs(ActionChannels((s0, s1)), pot, p)
        rolled = hj_rhs(ActionChannels(
            (RealField(np.roll(s0.values, 1), GRID),
             RealField(np.roll(s1.values, 1), GRID))), pot, p)
        for b, r in zip(base, rolled):
            assert np.max(np.abs(np.roll(b, 1) - r)) < 1e-11


class TestEvolve:
    def test_free_particle_matches_closed_form(self):
        ch = ActionChannels((RealField.zeros(GRID), RealField.zeros(GRID)),
                            (1.0, 0.0))
        traj = evolve_hj(ch, PotentialSet.zeros(GRID, 2), P_EQUAL,
                         1e-3, 1000, snapshot_every=1000)
        exact = 1.0 * GRID.x - 0.5 * 1.0
        assert np.max(np.abs(traj.states[-1].total_samples(0) - exact)) < 1e-8
        assert traj.times[-1] == pytest.approx(1.0)

    def test_uniform_potential_lowers_action_uniformly(self):
        pot = PotentialSet((RealField(np.full(256, 2.0), GRID),
                            RealField.zeros(GRID)), None)
        ch = ActionChannels((RealField.zeros(GRID), RealField.zeros(GRID)))
        traj = evolve_hj(ch, pot, P_EQUAL, 1e-3, 500, snapshot_every=500)
        assert np.max(np.abs(traj.states[-1].channels[0].values + 2.0 * 0.5)) < 1e-12

    def test_focusing_data_raises_caustic_in_window(self):
        grid = Grid1D(1024, -10.0, 10.0)
        ch = ActionChannels((RealField(-0.5 * grid.x ** 2, grid),
                             RealField.zeros(grid)))
        dt = 2e-4
        with pytest.raises(BlowUpError) as info:
            evolve_hj(ch, PotentialSet.zeros(grid, 2), P_EQUAL, dt, 6000,
                      snapshot_every=500)
        t_blow = info.value.step * dt
        assert 0.8 <= t_blow <= 1.0
        assert len(info.value.partial.states) >= 1

    def test_symmetric_closure_mode_runs(self):
        s0, s1 = smooth_pair()
        pot = PotentialSet.zeros(GRID, 2, mode=SYMMETRIC_CLOSURE)
        ch = ActionChannels((RealField(0.1 * s0.values, GRID),
                             RealField(0.1 * s1.values + 1.0, GRID)))
        traj = evolve_hj(ch, pot, P_EQUAL, 1e-3, 100, snapshot_every=100)
        assert np.all(np.isfinite(traj.states[-1].values_stack()))


def per_channel_rhs(v, S, pot, p):
    """Reference right-hand side: one spectral derivative call per channel
    and per closure Laplacian, in the batched version's operation order."""
    grid, masses, n_ch = S.grid, p.masses, v.shape[0]
    grads = [S.slopes[i] + spectral_derivative_values(v[i], grid, 1)
             for i in range(n_ch)]
    if pot.mode == SYMMETRIC_CLOSURE:
        vc0, vc1 = closure_couplings(
            spectral_derivative_values(v[0], grid, 2),
            spectral_derivative_values(v[1], grid, 2), p)
        vc = [vc0, vc1] + [np.zeros(grid.n_points)] * (n_ch - 2)
    else:
        vc = [pot.vc_values(i, grid) for i in range(n_ch)]
    out = np.empty_like(v)
    env_kinetic = np.zeros(grid.n_points)
    for n in range(1, n_ch):
        env_kinetic = env_kinetic + grads[n] * grads[n] / (2.0 * masses[n])
    out[0] = -(grads[0] * grads[0] / (2.0 * masses[0]) - env_kinetic
               + pot.vg_values(0, grid) + vc[0])
    for n in range(1, n_ch):
        cross = grads[0] * grads[n]
        out[n] = -(cross / (2.0 * masses[0]) + cross / (2.0 * masses[n])
                   + pot.vg_values(n, grid) + vc[n])
    return out


class TestBatchedStages:
    """Each RK4 stage is one rfft of the channel stack and one irfft of the
    stacked derivative spectra; the caustic check's stage is the next k1."""

    @staticmethod
    def three_channels():
        s0, s1 = smooth_pair()
        s2 = RealField(0.3 * np.cos(2 * np.pi * 4 * GRID.x / GRID.length), GRID)
        ch = ActionChannels((RealField(0.1 * s0.values, GRID),
                             RealField(0.1 * s1.values + 1.0, GRID), s2),
                            (0.4, 0.0, -0.2))
        pot = PotentialSet((RealField(0.01 * GRID.x ** 2, GRID),) * 3,
                           mode=SYMMETRIC_CLOSURE)
        return ch, pot, DualParams(masses=(1.0, 1.5, 2.0), zeta=2.0)

    def test_matches_per_channel_reference_bitwise(self):
        ch, pot, p = self.three_channels()
        dt, n_steps, every = 1e-3, 60, 20
        traj = evolve_hj(ch, pot, p, dt, n_steps, snapshot_every=every)
        v, ref = ch.values_stack(), [ch.values_stack()]
        for step in range(1, n_steps + 1):
            k1 = per_channel_rhs(v, ch, pot, p)
            k2 = per_channel_rhs(v + 0.5 * dt * k1, ch, pot, p)
            k3 = per_channel_rhs(v + 0.5 * dt * k2, ch, pot, p)
            k4 = per_channel_rhs(v + dt * k3, ch, pot, p)
            v = v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if step % every == 0:
                ref.append(v)
        assert len(traj.states) == len(ref) == 4
        for state, expected in zip(traj.states, ref):
            assert state.values_stack().tobytes() == expected.tobytes()

    @pytest.mark.parametrize("mode", [EXPLICIT, SYMMETRIC_CLOSURE])
    def test_fft_calls_per_step(self, monkeypatch, mode):
        ch, _, p = self.three_channels()
        pot = PotentialSet.zeros(GRID, 3, mode=mode)
        calls = [0]

        def counting(fn):
            def wrapper(*args, **kwargs):
                calls[0] += 1
                return fn(*args, **kwargs)
            return wrapper

        for fft_name in ("fft", "ifft", "rfft", "irfft"):
            monkeypatch.setattr(np.fft, fft_name,
                                counting(getattr(np.fft, fft_name)))

        def count(n):
            calls[0] = 0
            evolve_hj(ch, pot, p, 1e-3, n, snapshot_every=n)
            return calls[0]

        # set-up and snapshot work cancel in the difference
        assert count(6) - count(3) == 3 * 8


class TestParticipationMetric:
    def test_constant_environment_gives_zero(self):
        ch = ActionChannels((RealField(GRID.x ** 0, GRID),
                             RealField(np.full(256, 3.0), GRID)))
        assert np.max(np.abs(participation_metric(ch).values)) < 1e-15

    def test_linear_channel_gives_slope_squared(self):
        ch = ActionChannels((RealField.zeros(GRID), RealField.zeros(GRID)),
                            (0.0, 1.7))
        w = participation_metric(ch)
        assert np.max(np.abs(w.values - 1.7 ** 2)) < 1e-12

    def test_nonnegative_and_offset_invariant(self):
        s0, s1 = smooth_pair()
        ch = ActionChannels((s0, s1))
        w = participation_metric(ch)
        assert np.all(w.values >= 0.0)
        ch2 = ActionChannels((s0, RealField(s1.values + 13.0, GRID)))
        assert np.max(np.abs(participation_metric(ch2).values - w.values)) < 1e-10

    def test_environment_permutation_invariant(self):
        s0, s1 = smooth_pair()
        s2 = RealField(0.4 * np.sin(2 * np.pi * 4 * GRID.x / GRID.length), GRID)
        a = ActionChannels((s0, s1, s2))
        b = ActionChannels((s0, s2, s1))
        assert np.max(np.abs(participation_metric(a).values
                             - participation_metric(b).values)) < 1e-14
