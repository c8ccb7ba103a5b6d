import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    _hj_rhs,
    _inert_rows,
    evolve_hj,
)
from dualwave.scenarios import DEFAULT_GRID, builtin_by_name, expand

GRID = Grid1D(256, -10.0, 10.0)
P_EQUAL = DualParams(masses=(1.0, 1.0))


def smooth_pair(grid=GRID):
    x, L = grid.x, grid.length
    s0 = 0.8 * np.sin(2 * np.pi * x / L) + 0.3 * np.cos(2 * np.pi * 2 * x / L)
    s1 = -0.5 * np.cos(2 * np.pi * x / L) + 0.2 * np.sin(2 * np.pi * 3 * x / L)
    return RealField(s0, grid), RealField(s1, grid)


def rate_and_gradients(S, pot, p):
    """The rate and gradient stacks of `_hj_rhs`, the right-hand side
    evolve_hj steps, at the channel samples of S."""
    return _hj_rhs(S.slopes, pot, p, S.grid)(S.values_stack())


def hj_rhs(S, pot, p):
    """The rows of `_hj_rhs`'s rate at the channel samples of S."""
    return list(rate_and_gradients(S, pot, p)[0])


class TestActionChannels:
    def test_requires_two_channels(self):
        with pytest.raises(ValueError):
            ActionChannels((RealField.zeros(GRID),))

    def test_mass_count_must_match(self):
        # the channel masses are the run's DualParams masses, one per channel
        ch = ActionChannels((RealField.zeros(GRID), RealField.zeros(GRID)))
        with pytest.raises(ConfigurationError, match="got 3 masses and 2 potentials"):
            evolve_hj(ch, PotentialSet.zeros(GRID, 2),
                      DualParams(masses=(1.0, 1.0, 1.0)), 1e-3, 1)

    def test_potential_count_must_match(self):
        # one guiding potential per channel; a missing one is not zero-filled
        ch = ActionChannels((RealField.zeros(GRID),) * 3)
        with pytest.raises(ConfigurationError, match="got 3 masses and 2 potentials"):
            evolve_hj(ch, PotentialSet.zeros(GRID, 2),
                      DualParams(masses=(1.0, 1.0, 1.0)), 1e-3, 1)

    def test_gradient_includes_slope(self, stack_record):
        ch = ActionChannels((RealField.zeros(GRID), RealField.zeros(GRID)),
                            (2.5, 0.0))
        traj = evolve_hj(ch, PotentialSet.zeros(GRID, 2), P_EQUAL, 1e-3, 0,
                         record=stack_record)
        assert traj.times == [0.0]
        assert np.allclose(traj.gradients[0][0], 2.5, rtol=0, atol=1e-15)
        assert np.allclose(traj.samples[0][0], 2.5 * GRID.x, rtol=0, atol=0)


class TestDualRhs:
    def test_decoupled_limit(self):
        s0, _ = smooth_pair()
        vg0 = RealField(0.1 * GRID.x ** 2, GRID)
        vg1 = RealField(np.full(256, 0.7), GRID)
        pot = PotentialSet((vg0, vg1))
        ch = ActionChannels((s0, RealField.zeros(GRID)))
        p = DualParams(masses=(1.0, 2.0))
        (ds0, ds1), (g0, _) = rate_and_gradients(ch, pot, p)
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
        assert np.max(np.abs(traj.samples[-1][0] - exact)) < 1e-8
        assert traj.times[-1] == pytest.approx(1.0)

    def test_uniform_potential_lowers_action_uniformly(self):
        pot = PotentialSet((RealField(np.full(256, 2.0), GRID),
                            RealField.zeros(GRID)))
        ch = ActionChannels((RealField.zeros(GRID), RealField.zeros(GRID)))
        traj = evolve_hj(ch, pot, P_EQUAL, 1e-3, 500, snapshot_every=500)
        assert np.max(np.abs(traj.samples[-1][0] + 2.0 * 0.5)) < 1e-12

    def test_fields_leaving_the_float_range_stop_the_run(self):
        # a uniform Vg0 = 1e305 lowers S0 by 1e305 a step at zero gradient;
        # at step 8 the zero mode of its 256 samples passes the largest
        # float, and the non-finite gradients that gives stop the run
        pot = PotentialSet((RealField(np.full(256, 1e305), GRID),
                            RealField.zeros(GRID)))
        ch = ActionChannels((RealField.zeros(GRID), RealField.zeros(GRID)))
        with pytest.raises(BlowUpError) as info:
            evolve_hj(ch, pot, P_EQUAL, 1.0, 40, snapshot_every=5)
        assert info.value.step == 8
        assert info.value.partial.times == [0.0, 5.0]
        assert info.value.partial.samples[-1][0][0] == pytest.approx(-5e305)

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
        assert len(info.value.partial.samples) >= 1

    def test_explicit_coupling_is_ill_posed_under_refinement(self):
        """With zero couplings and a varying environment channel Sn the
        explicit pair grows at |q| |dSn/dx| / m in the wavenumber q, so each
        grid doubling stops it earlier; the closure rule's Laplacian makes
        the same (S0, S1) data run on. A third channel S2 = 1 - cos x beside
        S1 = 0 stops at the same steps as S1 = 1 - cos x: it takes S1's place.
        dt * k_max^2 is 2.048 on the finest grid, inside RK4's bound 2.8."""
        dt, n_steps = 5e-4, 2000

        def run(n, mode, environment):
            grid = Grid1D(n, -np.pi, np.pi)
            fields = [0.3 * np.sin(grid.x)] + [f(grid.x) for f in environment]
            ch = ActionChannels(tuple(RealField(f, grid) for f in fields))
            return evolve_hj(ch, PotentialSet.zeros(grid, len(fields), mode),
                             DualParams(masses=(1.0,) * len(fields)),
                             dt, n_steps, n_steps)

        def bump(x):
            return 1.0 - np.cos(x)

        def explicit_stops(environment):
            stops = []
            for n in (32, 64, 128):
                with pytest.raises(BlowUpError) as info:
                    run(n, EXPLICIT, environment)
                stops.append(info.value.step)
            return stops

        stops = explicit_stops((bump,))
        assert stops[0] > stops[1] > stops[2]
        assert explicit_stops((np.zeros_like, bump)) == stops
        assert run(128, SYMMETRIC_CLOSURE, (bump,)).times[-1] == pytest.approx(1.0)

    def test_symmetric_closure_mode_runs(self):
        s0, s1 = smooth_pair()
        pot = PotentialSet.zeros(GRID, 2, mode=SYMMETRIC_CLOSURE)
        ch = ActionChannels((RealField(0.1 * s0.values, GRID),
                             RealField(0.1 * s1.values + 1.0, GRID)))
        traj = evolve_hj(ch, pot, P_EQUAL, 1e-3, 100, snapshot_every=100)
        assert np.all(np.isfinite(traj.samples[-1]))


def per_channel_rhs(v, S, pot, p):
    """Reference right-hand side: one spectral derivative call per channel
    and per closure Laplacian, in the batched version's operation order:
    row 0 sums a_i (g_i g_i) in channel order, a = (-1/2m0, +1/2m1, ...),
    row n >= 1 is (g0 gn) b_n, b_n = -(1/2m0 + 1/2mn), then each row adds
    -Vg and, under the closure rule, rows 0 and 1 add -c lap S1 and
    +c lap S0, c = zeta / (2 kinetic_mass)."""
    grid, n_ch = S.grid, v.shape[0]
    inv = [1.0 / (2.0 * m) for m in p.masses]
    grads = [S.slopes[i] + spectral_derivative_values(v[i], grid, 1)
             for i in range(n_ch)]
    out = np.empty_like(v)
    out[0] = grads[0] * grads[0] * -inv[0]
    for n in range(1, n_ch):
        out[0] = out[0] + grads[n] * grads[n] * inv[n]
    for n in range(1, n_ch):
        out[n] = grads[0] * grads[n] * -(inv[0] + inv[n])
    out = out + -pot.values
    if pot.mode == SYMMETRIC_CLOSURE:
        c = p.zeta / (2.0 * p.kinetic_mass)
        out[0] = out[0] + spectral_derivative_values(v[1], grid, 2) * -c
        out[1] = out[1] + spectral_derivative_values(v[0], grid, 2) * c
    return out


def divide_form_rhs(S, pot, p):
    """The rate as the module docstring writes it, one channel at a time,
    each kinetic term divided by its 2 m_i and the bracket negated, with
    the closure rule's Vc0 = c lap S1 and Vc1 = -c lap S0."""
    grid, v, n_ch = S.grid, S.values_stack(), S.n_channels
    m = p.masses
    g = [S.slopes[i] + spectral_derivative_values(v[i], grid, 1) for i in range(n_ch)]
    vc = [np.zeros(grid.n_points) for _ in range(n_ch)]
    if pot.mode == SYMMETRIC_CLOSURE:
        c = p.zeta / (2.0 * p.kinetic_mass)
        vc[0] = c * spectral_derivative_values(v[1], grid, 2)
        vc[1] = -c * spectral_derivative_values(v[0], grid, 2)
    env = sum(g[n] ** 2 / (2.0 * m[n]) for n in range(1, n_ch))
    rows = [-(g[0] ** 2 / (2.0 * m[0]) - env + pot.values[0] + vc[0])]
    rows += [-(g[0] * g[n] / (2.0 * m[0]) + g[0] * g[n] / (2.0 * m[n])
               + pot.values[n] + vc[n]) for n in range(1, n_ch)]
    return np.array(rows)


class TestBatchedStages:
    """Each RK4 stage is one rfft of the stack of moving channels and one
    irfft of the stacked derivative spectra; the caustic check's stage is
    the next k1. An inert channel steps as one number."""

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

    @staticmethod
    def uniform_channels():
        # every channel uniform, slopes aside, under the closure rule; S0
        # starts at 0, so its value is the sum of its increments
        ch = ActionChannels((RealField.zeros(GRID),
                             RealField(np.full(256, -1.0), GRID)), (0.4, -0.2))
        pot = PotentialSet((RealField(np.full(256, 0.3), GRID),
                            RealField(np.full(256, -0.7), GRID)), mode=SYMMETRIC_CLOSURE)
        return ch, pot, DualParams(masses=(1.0, 1.5), zeta=2.0)

    @staticmethod
    def uniform_s1():
        # explicit coupling: a quadratic S0 beside a uniform S1 under a uniform Vg1
        ch = ActionChannels((RealField(-0.05 * GRID.x ** 2, GRID),
                             RealField(np.full(256, 1.0), GRID)))
        pot = PotentialSet((RealField(0.01 * GRID.x ** 2, GRID),
                            RealField(np.full(256, 0.6), GRID)))
        return ch, pot, DualParams(masses=(1.0, 1.5))

    @staticmethod
    def negative_zero_s0():
        # S0 of -0.0 samples moves beside an inert zero S1: the inert row's
        # +0.0 term in row 0's sum turns S0's -0.0 samples into +0.0
        ch = ActionChannels((RealField(np.full(256, -0.0), GRID), RealField.zeros(GRID)))
        return ch, PotentialSet.zeros(GRID, 2), DualParams(masses=(1.0, 1.5))

    @staticmethod
    def closure_uniform_s2():
        # S1 and S2 uniform under uniform potentials: S1 still moves, since
        # its rate reads lap S0
        ch, pot, p = TestBatchedStages.three_channels()
        uniform = [RealField(np.full(256, c), GRID) for c in (1.0, 0.8, -0.6, 0.25)]
        ch = ActionChannels((ch.channels[0], *uniform[:2]), (0.4, 0.0, 0.0))
        pot = PotentialSet((pot.vg[0], *uniform[2:]), mode=SYMMETRIC_CLOSURE)
        return ch, pot, p

    @pytest.mark.parametrize("case, inert", [
        ("three_channels", []), ("uniform_channels", [0, 1]), ("uniform_s1", [1]),
        ("negative_zero_s0", [1]), ("closure_uniform_s2", [2])],
        ids=["three_channels", "uniform_channels", "uniform_s1", "negative_zero_s0",
             "closure_uniform_s2"])
    def test_matches_per_channel_reference_bitwise(self, case, inert, stack_record):
        ch, pot, p = getattr(self, case)()
        assert _inert_rows(ch.values_stack(), ch.slopes, pot) == inert
        dt, n_steps, every = 1e-3, 60, 20
        traj = evolve_hj(ch, pot, p, dt, n_steps, snapshot_every=every,
                         record=stack_record)
        v, ref = ch.values_stack(), [ch.values_stack()]
        for step in range(1, n_steps + 1):
            k1 = per_channel_rhs(v, ch, pot, p)
            k2 = per_channel_rhs(v + 0.5 * dt * k1, ch, pot, p)
            k3 = per_channel_rhs(v + 0.5 * dt * k2, ch, pot, p)
            k4 = per_channel_rhs(v + dt * k3, ch, pot, p)
            v = v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if step % every == 0:
                ref.append(v)
        assert len(traj.samples) == len(traj.gradients) == len(ref) == 4
        for samples, grads, expected in zip(traj.samples, traj.gradients, ref):
            for i, slope in enumerate(ch.slopes):
                assert (samples[i].tobytes()
                        == (slope * GRID.x + expected[i]).tobytes())
                assert (grads[i].tobytes() == (
                    slope + spectral_derivative_values(expected[i], GRID, 1)).tobytes())

    def test_uniform_channels_make_no_fft_call(self, fft_counter):
        ch, pot, p = self.uniform_channels()
        traj = evolve_hj(ch, pot, p, 1e-3, 6, snapshot_every=2)
        assert fft_counter[0] == 0
        assert len(traj.samples) == 4

    @pytest.mark.parametrize("mode", [EXPLICIT, SYMMETRIC_CLOSURE])
    def test_fft_calls_per_step(self, fft_counter, mode):
        ch, _, p = self.three_channels()
        pot = PotentialSet.zeros(GRID, 3, mode=mode)
        calls = fft_counter

        def count(n):
            calls[0] = 0
            evolve_hj(ch, pot, p, 1e-3, n, snapshot_every=n)
            return calls[0]

        # set-up and snapshot work cancel in the difference
        assert count(6) - count(3) == 3 * 8


MODES = st.sampled_from([EXPLICIT, SYMMETRIC_CLOSURE])
SMALL_GRID = Grid1D(64, -np.pi, np.pi)


@st.composite
def channel_stacks(draw, min_channels=2, max_channels=4):
    """(ActionChannels, Vg stack, masses) of 2-4 smooth channels on
    SMALL_GRID: a few Fourier modes and a slope per channel, masses in
    [0.5, 3], and a smooth guiding potential per channel."""
    n_ch = draw(st.integers(min_channels, max_channels))
    unit = st.floats(-1.0, 1.0)
    x = SMALL_GRID.x
    fields, vgs = [], []
    for _ in range(n_ch):
        a, b, c = (draw(unit) for _ in range(3))
        fields.append(RealField(a * np.sin(x) + b * np.cos(2 * x) + c * np.sin(3 * x),
                                SMALL_GRID))
        v0, v1 = draw(unit), draw(unit)
        vgs.append(v0 + v1 * np.cos(x))
    slopes = [draw(st.floats(-2.0, 2.0)) for _ in range(n_ch)]
    masses = tuple(draw(st.floats(0.5, 3.0)) for _ in range(n_ch))
    return ActionChannels(tuple(fields), slopes), np.array(vgs), masses


def vg_set(values, mode):
    return PotentialSet(tuple(RealField(v, SMALL_GRID) for v in values), mode)


class TestRateProperties:
    """Random 2-4 channel stacks in both potential modes."""

    @given(channel_stacks(), MODES, st.floats(0.5, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_matches_divide_form(self, stack, mode, zeta):
        # the per-run coefficients change the rounding, not the formula
        ch, vg, masses = stack
        pot, p = vg_set(vg, mode), DualParams(masses, zeta)
        rate = np.array(hj_rhs(ch, pot, p))
        ref = divide_form_rhs(ch, pot, p)
        assert np.max(np.abs(rate - ref)) <= 1e-13 * np.max(np.abs(ref))

    @given(channel_stacks(max_channels=3), MODES, st.floats(0.5, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_zero_channel_leaves_rows_bitwise(self, stack, mode, mass):
        ch, vg, masses = stack
        rate, grads = rate_and_gradients(ch, vg_set(vg, mode), DualParams(masses))
        extra = ActionChannels((*ch.channels, RealField.zeros(SMALL_GRID)),
                               (*ch.slopes, 0.0))
        vg_extra = np.vstack((vg, np.zeros(SMALL_GRID.n_points)))
        rate_x, grads_x = rate_and_gradients(extra, vg_set(vg_extra, mode),
                                             DualParams((*masses, mass)))
        assert rate_x[:-1].tobytes() == rate.tobytes()
        assert grads_x[:-1].tobytes() == grads.tobytes()

    @given(channel_stacks(max_channels=2))
    @settings(max_examples=40, deadline=None)
    def test_sector_exchange_flips_row_0(self, stack):
        # V = 0 in explicit mode: the exchange turns the closure rule's
        # (Vc0, Vc1) = (c lap S1, -c lap S0) into (-Vc1, -Vc0), which mixes
        # the rows
        ch, _, masses = stack
        pot = PotentialSet.zeros(SMALL_GRID, 2)
        ds0, ds1 = hj_rhs(ch, pot, DualParams(masses))
        swapped = ActionChannels(ch.channels[::-1], ch.slopes[::-1])
        es0, es1 = hj_rhs(swapped, pot, DualParams(masses[::-1]))
        assert np.max(np.abs(es0 + ds0)) <= 1e-14
        assert np.max(np.abs(es1 - ds1)) <= 1e-14


class TestChannelIdentities:
    """The environment channels enter the rate symmetrically: S0 loses
    sum_n (dSn)^2/2mn and each Sn gains dS0 dSn (1/2m0 + 1/2mn). So a zero
    channel changes nothing, equal-mass channels rotate freely, and K equal
    channels of one mass act as one channel sqrt(K) S of that mass. Each run
    steps S0 = 0.3 sin x, S1 = 1 - cos x under the closure rule."""

    GRID = Grid1D(64, -np.pi, np.pi)
    X = GRID.x
    S0, S1 = 0.3 * np.sin(X), 1.0 - np.cos(X)
    A, B = 0.2 * np.cos(X), 0.1 * np.sin(2.0 * X)

    def final(self, environment, masses):
        """The last samples of 1000 steps of 5e-4 of (S0, S1, *environment)."""
        fields = (self.S0, self.S1, *environment)
        ch = ActionChannels(tuple(RealField(f, self.GRID) for f in fields))
        pot = PotentialSet.zeros(self.GRID, len(fields), SYMMETRIC_CLOSURE)
        traj = evolve_hj(ch, pot, DualParams(masses=(1.0, 1.0, *masses)), 5e-4, 1000, 1000)
        return traj.samples[-1]

    def test_zero_channel_changes_nothing(self):
        alone = self.final((), ())
        extra = self.final((np.zeros_like(self.X),), (2.0,))
        assert extra[:2].tobytes() == alone.tobytes()
        assert np.all(extra[2] == 0.0)

    def test_equal_mass_channels_rotate_freely(self):
        c, s = np.cos(0.7), np.sin(0.7)
        plain = self.final((self.A, self.B), (1.5, 1.5))
        rotated = self.final((c * self.A - s * self.B, s * self.A + c * self.B),
                             (1.5, 1.5))
        assert np.max(np.abs(rotated[:2] - plain[:2])) < 1e-12
        assert np.max(np.abs(rotated[2] - (c * plain[2] - s * plain[3]))) < 1e-12
        assert np.max(np.abs(rotated[3] - (s * plain[2] + c * plain[3]))) < 1e-12

    def test_equal_channels_act_as_one_scaled_channel(self):
        three = self.final((self.A,) * 3, (1.5,) * 3)
        one = self.final((np.sqrt(3.0) * self.A,), (1.5,))
        assert np.max(np.abs(one[:2] - three[:2])) < 1e-12
        assert np.max(np.abs(one[2] - np.sqrt(3.0) * three[2:])) < 1e-12
        # and the channel acts on S0: it moves S0 by 0.023 by t = 0.5
        assert np.max(np.abs(one[0] - self.final((), ())[0])) > 1e-3


class TestHJTrajectory:
    def test_default_record_keeps_no_gradient_stacks(self, traced_peak):
        """The default record keeps each recorded step's samples and reduces
        its gradient stack, which takes as many bytes, to max|dS|: beyond
        the samples, a dense run holds less than a quarter of their bytes."""
        exp = expand(builtin_by_name("hj_free_particle"), DEFAULT_GRID)
        integ = exp.integration
        records = integ.n_steps + 1
        samples_bytes = records * exp.channels.n_channels * DEFAULT_GRID.n_points * 8
        traj, peak = traced_peak(evolve_hj, exp.channels, exp.potentials,
                                 exp.params, integ.dt, integ.n_steps, 1)
        assert len(traj.samples) == records
        # uniform channels: each gradient row is its slope
        assert traj.max_abs_grad == [max(map(abs, exp.channels.slopes))] * records
        assert peak - samples_bytes < samples_bytes / 4
