import dataclasses
import functools
import math
import tracemalloc
import warnings

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
    RealField,
    spectral_derivative_values,
)
from dualwave.diagnostics import energy
from dualwave.hamilton_jacobi import (
    EXPLICIT,
    SYMMETRIC_CLOSURE,
    ActionChannels,
    PotentialSet,
    evolve_hj,
)
from dualwave.madelung import to_wavefunction
from dualwave.oscillators import OscParams, bateman_rhs, integrate_rk4
from dualwave.scenarios import DEFAULT_GRID, Integration, builtin_by_name, expand
from dualwave.wavesolver import (
    NONLINEAR_OFF,
    NONLINEAR_ON,
    WaveRun,
    WaveScenario,
    _asymmetry_potential,
    _GeneralizedStepper,
    _strang_steps,
    _tail_fraction,
    coevolved_wavefunction_run,
    evolve,
    evolve_many,
    schrodinger_reference,
)

GRID = DEFAULT_GRID
P_SYM = DualParams(masses=(1.0, 1.0))


def unit_gaussian(grid=GRID, sigma=0.5, k=0.0, center=0.0):
    amp = (2.0 * math.pi * sigma ** 2) ** -0.25
    vals = amp * np.exp(-(grid.x - center) ** 2 / (4 * sigma ** 2) + 1j * k * grid.x)
    return ComplexField(vals, grid)


def plane_wave(mode=8, grid=GRID):
    k = 2.0 * math.pi * mode / grid.length
    return k, ComplexField(np.exp(1j * k * grid.x), grid)


def rhs_stepper(psi, params, pot, **changes):
    """The one-row stepper of a zero-step scenario: its kinetic coefficient
    and rates are the terms of the generalized equation's right-hand side,
    dpsi/dt = i c lap psi + (a + i nu W / z) psi."""
    return _GeneralizedStepper([WaveScenario(
        psi0=psi, params=params, potentials=pot, dt=1e-6, n_steps=0, **changes)])


def kinetic_coeff(stepper):
    """c of the stepper's full kinetic propagator exp(-i c k^2 dt), read back
    at the Nyquist wavenumber, where c k^2 dt stays below pi at dt = 1e-6."""
    n = stepper.grid.n_points // 2
    k = stepper.grid.wavenumbers[n]
    return -np.angle(stepper.kinetic_full[0, n]) / (k * k * stepper.dt)


def bracket(v):
    """psi* div(grad psi / psi*) - lap psi, which is exactly -W psi."""
    return -_asymmetry_potential(v, GRID) * v


class TestGeneralizedRhs:
    """The right-hand side's terms, read from the stepper that steps them."""

    def test_symmetric_closure_reduces_to_schrodinger_rhs(self):
        # i dpsi/dt = -(1/2) lap psi + Vg0 psi at m0 = m1 = 1, zeta = 1
        vg0 = RealField(0.5 * GRID.x ** 2, GRID)
        pot = PotentialSet((vg0, RealField.zeros(GRID)))
        psi = unit_gaussian(sigma=math.sqrt(0.5))
        stepper = rhs_stepper(psi, P_SYM, pot)
        assert not stepper.nonlinear
        assert kinetic_coeff(stepper) == pytest.approx(0.5, rel=1e-12)
        potential_term = stepper.base_a[0] * psi.values
        expected = vg0.values * psi.values / 1j
        assert np.max(np.abs(potential_term - expected)) < 1e-12

    def test_plane_wave_bracket(self):
        k, psi = plane_wave()
        assert np.max(np.abs(bracket(psi.values) + k ** 2 * psi.values)) < 1e-10

    def test_gaussian_bracket_matches_closed_form(self):
        # psi = A exp(-x^2/4 sigma^2 + i k x) has grad psi / psi =
        # -x/2 sigma^2 + i k, so the bracket is -(x^2/4 sigma^4 + k^2) psi
        sigma, k = 0.5, 2.0
        psi = unit_gaussian(sigma=sigma, k=k)
        exact = -(GRID.x ** 2 / (4 * sigma ** 4) + k ** 2) * psi.values
        rho = np.abs(psi.values) ** 2
        support = rho > 1e-2 * np.max(rho)
        assert np.max(np.abs(bracket(psi.values) - exact)[support]) <= 1e-10

    def test_residual_mass_term_on_plane_wave(self):
        k, psi = plane_wave()
        v = psi.values[None]
        p = DualParams(masses=(1.0, 1.5))
        pot = PotentialSet.zeros(GRID, 2)
        on = rhs_stepper(psi, p, pot, nonlinear_term=NONLINEAR_ON)
        off = rhs_stepper(psi, p, pot, nonlinear_term=NONLINEAR_OFF)
        # switching the term on adds the asymmetry rate and nothing else
        assert on.nonlinear and not off.nonlinear
        assert np.array_equal(on.base_a, off.base_a)
        assert np.array_equal(on.kinetic_full, off.kinetic_full)
        nu = 0.25 * p.residual_inv_mass
        expected = nu * (-(k ** 2) * psi.values) / 1j
        assert np.max(np.abs(1j * on.asymmetry_rate(v)[0] * psi.values
                             - expected)) < 1e-10

    def test_mass_symmetric_kills_nonlinear_term(self):
        _, psi = plane_wave()
        on = rhs_stepper(psi, P_SYM, PotentialSet.zeros(GRID, 2),
                         nonlinear_term=NONLINEAR_ON)
        assert not np.any(on.asymmetry_rate(psi.values[None]))

    def test_real_gaussian_symmetric_mode_pure_kinetic(self):
        psi = unit_gaussian()
        stepper = rhs_stepper(psi, P_SYM, PotentialSet.zeros(GRID, 2))
        assert not np.any(stepper.base_a)
        lap = spectral_derivative_values(psi.values, GRID, 2)
        expected = (-(1.0 / (4 * P_SYM.reduced_mass)) * lap) / 1j
        kinetic_term = 1j * kinetic_coeff(stepper) * lap
        assert np.max(np.abs(kinetic_term - expected)) < 1e-10


class TestStepSplitstep:
    def test_zero_steps_is_identity(self):
        psi = unit_gaussian()
        scenario = WaveScenario(psi0=psi, params=P_SYM,
                                potentials=PotentialSet.zeros(GRID, 2),
                                dt=1e-3, n_steps=0)
        run = evolve(scenario)
        assert len(run.snapshots) == 1
        assert np.array_equal(run.final.psi.values, psi.values)

    def test_plane_wave_constant_potential_phase(self):
        k, psi = plane_wave()
        v0 = 0.5
        pot = PotentialSet((RealField(np.full(GRID.n_points, v0), GRID),
                            RealField.zeros(GRID)))
        dt, n = 2e-4, 5000
        scenario = WaveScenario(psi0=psi, params=P_SYM, potentials=pot,
                                dt=dt, n_steps=n, snapshot_every=n)
        run = evolve(scenario)
        t = dt * n
        expected_phase = -(0.5 * k ** 2 / P_SYM.m0 + v0 / P_SYM.zeta) * t
        measured = np.angle(run.final.psi.values / psi.values)
        dev = np.angle(np.exp(1j * (measured - expected_phase)))
        assert np.max(np.abs(dev)) < 1e-8

    def test_stability_guard_rejects_large_dt_with_nonlinear(self):
        _, psi = plane_wave()
        with pytest.raises(ConfigurationError):
            WaveScenario(psi0=psi, params=DualParams(masses=(1.0, 1.5)),
                         potentials=PotentialSet.zeros(GRID, 2),
                         dt=1e-3, n_steps=10)


class TestEvolve:
    def test_harmonic_ground_state_stationary_one_period(self):
        # quarter-period phases see the largest splitting-error wobble
        scenario = expand(builtin_by_name("harmonic_ground_symmetric"),
                          GRID).scenario
        dt = 5e-4
        n = int(round(2 * math.pi / dt))
        scenario = dataclasses.replace(scenario, dt=dt, n_steps=n,
                                       snapshot_every=n // 8)
        run = evolve(scenario)
        amp0 = np.abs(run.snapshots[0].psi.values)
        for snap in run.snapshots:
            assert np.max(np.abs(np.abs(snap.psi.values) - amp0)) < 1e-7

    def test_free_packet_spreading(self):
        scenario = expand(builtin_by_name("free_gaussian_symmetric"),
                          GRID).scenario
        scenario = dataclasses.replace(scenario, n_steps=500, snapshot_every=500)
        run = evolve(scenario)
        rho = np.abs(run.final.psi.values) ** 2
        mean = float(np.sum(GRID.x * rho) / np.sum(rho))
        sigma = math.sqrt(float(np.sum((GRID.x - mean) ** 2 * rho) / np.sum(rho)))
        exact = 0.5 * math.sqrt(1 + (0.5 / (2 * 0.25)) ** 2)
        assert abs(sigma - exact) / exact < 1e-6

    def test_norm_decay_law_with_imaginary_potential(self):
        lam = 0.5
        scenario = expand(builtin_by_name("norm_drift_constant_Vg1"),
                          GRID).scenario
        run = evolve(scenario)
        n0 = run.snapshots[0].norm
        for snap in run.snapshots:
            expected = n0 * math.exp(-2 * lam * snap.t / P_SYM.zeta)
            assert abs(snap.norm - expected) < 1e-6

    def test_norm_conserved_in_symmetric_mode(self):
        scenario = expand(builtin_by_name("free_gaussian_symmetric"),
                          GRID).scenario
        run = evolve(scenario)
        n0 = run.snapshots[0].norm
        assert max(abs(s.norm - n0) for s in run.snapshots) < 1e-8

    def test_blowup_returns_partial_run(self):
        # a large positive imaginary potential amplifies the norm past the
        # overflow threshold mid-run; the check runs at snapshot steps only,
        # so growth exp(40 t) from amplitude ~0.9 trips it at t = 0.71
        psi = unit_gaussian()
        pot = PotentialSet((RealField.zeros(GRID),
                            RealField(np.full(GRID.n_points, 40.0), GRID)))
        scenario = WaveScenario(psi0=psi, params=P_SYM, potentials=pot,
                                dt=1e-3, n_steps=1000, snapshot_every=10)
        with pytest.raises(BlowUpError) as info:
            evolve(scenario)
        assert info.value.step == 710
        assert len(info.value.partial.snapshots) == 71

    def test_non_finite_state_blows_up(self):
        # a growth factor of about 5e3 per step overflows to inf and then,
        # through the FFTs, to NaN before the first snapshot step; the
        # snapshot check reports it, with no NumPy RuntimeWarning on the way
        pot = PotentialSet((RealField.zeros(GRID),
                            RealField(np.full(GRID.n_points, 1e5), GRID)))
        scenario = WaveScenario(psi0=unit_gaussian(), params=P_SYM,
                                potentials=pot, dt=1e-3, n_steps=200,
                                snapshot_every=100)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(BlowUpError, match="^blow-up at step 100$") as info:
                evolve(scenario)
        assert [str(w.message) for w in caught] == []
        assert len(info.value.partial.snapshots) == 1

    def test_mass_asymmetric_gaussian_conserves_norm(self):
        # the mass-asymmetry substep is a phase rotation by a real potential
        scenario = WaveScenario(psi0=unit_gaussian(sigma=0.5, k=2.0),
                                params=DualParams(masses=(1.0, 1.5)),
                                potentials=PotentialSet.zeros(GRID, 2),
                                dt=1e-5, n_steps=1000, snapshot_every=100)
        run = evolve(scenario)
        n0 = run.snapshots[0].norm
        assert len(run.snapshots) == 11
        assert max(abs(s.norm - n0) for s in run.snapshots) <= 1e-10

    def test_energy_uses_stepped_kinetic_mass(self):
        # i z dpsi/dt = -(z^2/4 m_red) lap psi + Vg0 psi conserves the energy
        # with the kinetic mass 2 m_red; with m0 it drifts by ~4e-2
        vg0 = RealField(0.5 * GRID.x ** 2, GRID)
        scenario = WaveScenario(psi0=unit_gaussian(sigma=0.5, center=1.0),
                                params=DualParams(masses=(1.0, 1.5)),
                                potentials=PotentialSet((vg0, RealField.zeros(GRID))),
                                dt=1e-3, n_steps=3000, snapshot_every=100,
                                nonlinear_term=NONLINEAR_OFF)
        run = evolve(scenario)
        energies = [energy(s.psi, vg0.values, scenario.params.kinetic_mass, 1.0)
                    for s in run.snapshots]
        assert max(abs(e - energies[0]) for e in energies) < 1e-6

    @pytest.mark.parametrize("zeta", [1.0, 2.0])
    @pytest.mark.parametrize("closure_mode", [SYMMETRIC_CLOSURE, EXPLICIT])
    def test_mass_asymmetric_plane_wave_closed_form(self, closure_mode, zeta):
        # the kinetic rate zeta k^2 (1/m0 + 1/m1) / 4 and the mass-asymmetry
        # rotation zeta k^2 (1/m0 - 1/m1) / 4 leave the phase rate zeta k^2 / 2 m1
        k, psi = plane_wave()
        p = DualParams(masses=(1.0, 1.5), zeta=zeta)
        n = 2000
        closure = PotentialSet.zeros(GRID, 2, mode=SYMMETRIC_CLOSURE)
        scenario = WaveScenario(psi0=psi, params=p, potentials=closure,
                                dt=1e-5, n_steps=n, snapshot_every=n,
                                closure_mode=closure_mode)
        run = evolve(scenario)
        exact = np.exp(-1j * zeta * k ** 2 * run.final.t / (2 * p.m1)) * psi.values
        assert np.max(np.abs(run.final.psi.values - exact)) <= 1e-10

    def test_galilean_boost_translates_density(self):
        k = 2 * math.pi * 8 / GRID.length
        cells = 64
        t_star = cells * GRID.dx / k
        n = 500
        base = WaveScenario(psi0=unit_gaussian(), params=P_SYM,
                            potentials=PotentialSet.zeros(GRID, 2),
                            dt=t_star / n, n_steps=n, snapshot_every=n)
        boosted = dataclasses.replace(base, psi0=unit_gaussian(k=k))
        rho0 = np.abs(evolve(base).final.psi.values) ** 2
        rhob = np.abs(evolve(boosted).final.psi.values) ** 2
        assert np.max(np.abs(rhob - np.roll(rho0, cells))) < 1e-6


def fft_calls(calls, scenarios, step_counts) -> list:
    """FFT calls of `evolve_many(scenarios)` at each of `step_counts`, with
    a snapshot at the first and the last step only, counted in `calls`
    (the `fft_counter` fixture)."""

    def count(n):
        calls[0] = 0
        runs = evolve_many([dataclasses.replace(s, n_steps=n, snapshot_every=max(n, 1))
                            for s in scenarios])
        assert all(isinstance(run, WaveRun) for run in runs)
        return calls[0]

    return [count(n) for n in step_counts]


def fft_calls_of_three_steps(calls, scenarios) -> int:
    """FFT calls of three time steps, counted exactly from two runs that
    differ only in their step count: set-up work cancels in the difference."""
    three, six = fft_calls(calls, scenarios, (3, 6))
    return six - three


class TestLoopDriver:
    """`evolve` merges the kinetic half-steps of consecutive Strang steps
    between snapshots; a loop of single steps is the unmerged reference."""

    @staticmethod
    def harmonic(n_steps, snapshot_every):
        scenario = expand(builtin_by_name("harmonic_ground_symmetric"),
                          GRID).scenario
        return dataclasses.replace(scenario, n_steps=n_steps,
                                   snapshot_every=snapshot_every)

    def test_matches_loop_of_single_steps(self):
        scenario = self.harmonic(2000, 7)  # 7 does not divide 2000
        stepper = _GeneralizedStepper([scenario])
        v, times, states = scenario.psi0.values[None], [0.0], [scenario.psi0.values]
        for step in range(1, scenario.n_steps + 1):
            v, _ = _strang_steps(v, stepper, 1)
            if step % 7 == 0 or step == scenario.n_steps:
                times.append(step * scenario.dt)
                states.append(v[0])
        run = evolve(scenario)
        assert len(run.snapshots) == len(states) == 287
        assert [s.t for s in run.snapshots] == times
        for snap, ref in zip(run.snapshots, states):
            assert np.max(np.abs(snap.psi.values - ref)) <= 1e-12

    @pytest.mark.parametrize("n_steps, snapshot_every, steps",
                             [(0, 1, [0]), (0, 10, [0]), (5, 10, [0, 5]),
                              (100, 7, [0, *range(7, 100, 7), 100])])
    def test_snapshot_cadence(self, n_steps, snapshot_every, steps):
        """The wave, reference, HJ and oscillator solvers all record the
        steps of `core.snapshot_steps`, the last one included."""
        scenario = self.harmonic(n_steps, snapshot_every)
        dt = scenario.dt
        expected = np.array(steps) * dt
        run = evolve(scenario)
        ref = schrodinger_reference(scenario.psi0, scenario.potentials.vg[0],
                                    1.0, 1.0, dt, n_steps, snapshot_every)
        hj = evolve_hj(ActionChannels((RealField.zeros(GRID), RealField.zeros(GRID)),
                                      (1.0, 0.0)),
                       PotentialSet.zeros(GRID, 2), P_SYM, dt, n_steps, snapshot_every)
        assert np.array_equal([s.t for s in run.snapshots], expected)
        assert np.array_equal([s.t for s in ref.snapshots], expected)
        assert np.array_equal(hj.times, expected)
        assert np.array_equal(run.snapshots[0].psi.values,
                              scenario.psi0.values)

        def oscillator(every):
            return integrate_rk4(bateman_rhs(OscParams(gamma=0.2)),
                                 [1.0, 0.0, 1.0, 0.0], dt, n_steps, every)

        assert np.array_equal(oscillator(snapshot_every), oscillator(1)[steps])

    @pytest.mark.parametrize("name, changes, per_step", [
        ("harmonic_ground_symmetric", {}, 2),
        ("residual_mass_plane_wave", {}, 4),
        ("free_gaussian_symmetric", {"closure_mode": EXPLICIT}, 2),
        ("residual_mass_plane_wave", {"closure_mode": EXPLICIT}, 4),
    ])
    def test_fft_calls_per_step(self, fft_counter, name, changes, per_step):
        scenario = expand(builtin_by_name(name), GRID).scenario
        if changes:
            closure = PotentialSet(vg=scenario.potentials.vg,
                                   mode=SYMMETRIC_CLOSURE)
            scenario = dataclasses.replace(scenario, potentials=closure,
                                           **changes)
        # recording a snapshot takes no FFT, so a run of no steps takes none
        zero, three, six = fft_calls(fft_counter, [scenario], (0, 3, 6))
        assert zero == 0
        assert six - three == 3 * per_step

    @pytest.mark.parametrize("kinds, per_step", [
        (("linear",), 2),
        (("linear",) * 4, 2),
        (("nonlinear",), 4),
        (("nonlinear", "linear"), 6),
        (("nonlinear", "linear") * 4, 6),  # a sweep of m1 over four values
        (("explicit",) * 3, 4),
        (("linear", "nonlinear", "explicit"), 6),
        (("explicit", "nonlinear", "linear") * 2, 6),
    ])
    def test_fft_calls_per_step_of_a_stack(self, fft_counter, kinds, per_step):
        """Linear and mass-asymmetric rows form their own stacks, and a
        stack's counts do not grow with its number of rows: 2 linear, 4
        mass-asymmetric; an explicit-closure row steps in its analytic
        twin's stack, and a call that mixes kinds sums one stack per kind."""
        base = expand(builtin_by_name("residual_mass_plane_wave"), GRID).scenario
        closure = PotentialSet(vg=base.potentials.vg, mode=SYMMETRIC_CLOSURE)
        changes = {"linear": {"nonlinear_term": NONLINEAR_OFF},
                   "nonlinear": {},
                   "explicit": {"closure_mode": EXPLICIT, "potentials": closure}}
        stack = [dataclasses.replace(
            base, params=DualParams(masses=(1.0, 1.1 + 0.1 * i)), **changes[kind])
            for i, kind in enumerate(kinds)]
        assert fft_calls_of_three_steps(fft_counter, stack) == 3 * per_step

    def test_fft_calls_per_reference_step(self, fft_counter):
        """The reference stepper also takes the spectra it is given and
        makes its own inverse transform: 2 FFT calls per step."""
        scenario = self.harmonic(0, 1)

        def count(n):
            fft_counter[0] = 0
            schrodinger_reference(scenario.psi0, scenario.potentials.vg[0], 1.0, 1.0,
                                  scenario.dt, n, max(n, 1))
            return fft_counter[0]

        zero, three, six = count(0), count(3), count(6)
        assert zero == 0
        assert six - three == 3 * 2


SMALL_GRID = Grid1D(64, -math.pi, math.pi)
MODES = 3  # Fourier modes +-1..MODES of a state's log


@settings(max_examples=40, deadline=None)
@given(rows=st.sampled_from([1, 3]), zeta=st.sampled_from([1.0, 2.0]),
       coeffs=st.lists(st.complex_numbers(max_magnitude=0.4, allow_nan=False,
                                          allow_infinity=False),
                       min_size=3 * 2 * MODES, max_size=3 * 2 * MODES),
       vg=st.tuples(st.floats(-5.0, 5.0), st.floats(-0.5, 0.5)))
def test_held_spectrum_gradient_matches_transformed_route(rows, zeta, coeffs, vg):
    """A mass-asymmetric substep reads psi and grad psi from one inverse
    transform of the spectra u it is given, and turns the phase by
    cos + i sin. The former route took grad psi from fft(ifft(u)) and
    stepped with one complex exp of the whole rate; on smooth nodeless
    states psi = exp(f), f a sum of low Fourier modes, the two substeps
    agree to rounding."""
    grid = SMALL_GRID
    m = np.arange(1, MODES + 1)[:, None]
    c = np.reshape(coeffs, (3, 2, MODES, 1))[:rows]
    logs = np.sum(c[:, 0] * np.exp(1j * m * grid.x) + c[:, 1] * np.exp(-1j * m * grid.x),
                  axis=1)
    pot = PotentialSet((RealField(vg[0] * np.cos(grid.x), grid),
                        RealField(vg[1] * np.sin(grid.x), grid)))
    # a third of the largest dt the mass-asymmetry guard accepts at masses
    # (1, 1.5), 0.5 * 2.4 / (zeta k_max^2), so that W moves the substep by ~1e-4
    dt = 4e-4 / zeta
    stepper = _GeneralizedStepper([
        WaveScenario(psi0=ComplexField(np.exp(log), grid),
                     params=DualParams(masses=(1.0, 1.5 + 0.25 * p), zeta=zeta),
                     potentials=pot, dt=dt, n_steps=1)
        for p, log in enumerate(logs)])
    u = np.fft.fft(np.exp(logs))
    got = stepper.pointwise(u)

    v = np.fft.ifft(u)
    grad = np.fft.ifft(grid.derivative_multipliers[1, False] * np.fft.fft(v))
    a = stepper.base_a
    mid = np.exp((0.5 * dt) * (a + 1j * stepper.asymmetry_rate(v, grad))) * v
    want = np.exp(dt * (a + 1j * stepper.asymmetry_rate(mid))) * v
    assert got.shape == want.shape == (rows, grid.n_points)
    scale = np.max(np.abs(want), axis=-1)
    assert np.all(np.max(np.abs(got - want), axis=-1) <= 1e-13 * scale)


def assert_same_run(got: WaveRun, want: WaveRun):
    assert len(got.snapshots) == len(want.snapshots)
    for a, b in zip(got.snapshots, want.snapshots):
        assert a.t == b.t and a.norm == b.norm
        assert np.array_equal(a.psi.values, b.psi.values)


class TestStackedRows:
    """`evolve_many` steps the runs that share their stepping as one (P, N)
    stack; each row must come out bitwise equal to its scenario alone."""

    @staticmethod
    def mixed_stack():
        """Linear, mass-asymmetric, explicit-closure and explicit
        mass-asymmetric rows at masses (1, 1) and (1, 1.5) and zeta 1 and 2,
        listed out of kind order, plus a row that overflows at step 50."""
        x = GRID.x
        zeros = PotentialSet.zeros(GRID, 2)
        closure = PotentialSet.zeros(GRID, 2, mode=SYMMETRIC_CLOSURE)
        harmonic = PotentialSet((RealField(0.5 * x ** 2, GRID), RealField.zeros(GRID)),
                                SYMMETRIC_CLOSURE)
        growing = PotentialSet((RealField.zeros(GRID),
                                RealField(np.full(GRID.n_points, 1e5), GRID)))
        _, wave = plane_wave()
        packet = unit_gaussian(k=2.0)
        sym2 = DualParams(masses=(1.0, 1.0), zeta=2.0)
        asym1 = DualParams(masses=(1.0, 1.5))
        asym2 = DualParams(masses=(1.0, 1.5), zeta=2.0)
        rows = [
            (wave, asym1, zeros, {}),
            (packet, P_SYM, harmonic, {}),
            (packet, P_SYM, closure, {"closure_mode": EXPLICIT}),
            (packet, P_SYM, growing, {}),
            (packet, asym2, zeros, {}),
            (wave, asym2, zeros, {"nonlinear_term": NONLINEAR_OFF}),
            (wave, sym2, closure, {"closure_mode": EXPLICIT}),
            (packet, asym1, closure, {"closure_mode": EXPLICIT}),
            (wave, sym2, harmonic, {}),
        ]
        return [WaveScenario(psi0=psi, params=p, potentials=pot, dt=1e-5,
                             n_steps=60, snapshot_every=25, **changes)
                for psi, p, pot, changes in rows]

    def test_rows_bitwise_equal_single_runs(self):
        stack = self.mixed_stack()
        results = evolve_many(stack)
        assert len(results) == len(stack)
        for scenario, got in zip(stack, results):
            try:
                want = evolve(scenario)
            except BlowUpError as err:
                want = err
            assert type(got) is type(want)
            if isinstance(want, BlowUpError):
                assert (got.step, str(got)) == (want.step, str(want))
                got, want = got.partial, want.partial
            assert_same_run(got, want)
        failed = [r for r in results if isinstance(r, BlowUpError)]
        assert [(err.step, len(err.partial.snapshots)) for err in failed] == [(50, 2)]
        assert all(len(r.snapshots) == 4 for r in results if isinstance(r, WaveRun))

    @staticmethod
    def losing_stack(kind):
        """A stack that loses rows mid-run. nonlinear: [grow, quiet, grow],
        mass-asymmetric plane waves, where grow's constant Vg1 = 3e5
        overflows at step 100; linear: norm_drift_constant_Vg1 at decay
        rate lambda = 1000, whose norm underflows at step 400, beside
        lambda = 0.5."""
        if kind == "nonlinear":
            base = builtin_by_name("residual_mass_plane_wave")
            grow = dataclasses.replace(
                base, potentials={"vg1": {"type": "constant", "v0": 3e5}})
            specs = [grow, dataclasses.replace(base, masses=(1.0, 1.2)), grow]
        else:
            base = builtin_by_name("norm_drift_constant_Vg1")
            specs = [dataclasses.replace(
                base, potentials={"vg1": {"type": "constant", "v0": -lam}})
                for lam in (1000.0, 0.5)]
        return [expand(spec, GRID).scenario for spec in specs]

    @pytest.mark.parametrize("kind, stops", [
        ("nonlinear", [(100, 1), (100, 1)]),
        ("linear", [(400, 4)]),
    ], ids=["nonlinear", "linear"])
    def test_stopped_row_leaves_live_rows_unchanged(self, kind, stops):
        # a stopped row is stepped on with its stack, unread: each live row
        # equals its run alone in every snapshot, and each stopped row has
        # the error and partial record of its run alone
        stack = self.losing_stack(kind)
        results = evolve_many(stack)
        for scenario, got in zip(stack, results):
            try:
                want = evolve(scenario)
            except BlowUpError as err:
                assert isinstance(got, BlowUpError)
                assert (got.step, str(got)) == (err.step, str(err))
                got, want = got.partial, err.partial
            assert_same_run(got, want)
        assert [(err.step, len(err.partial.snapshots)) for err in results
                if isinstance(err, BlowUpError)] == stops
        assert all(len(r.snapshots) == 11 for r in results if isinstance(r, WaveRun))

    def test_rows_of_other_stepping_form_their_own_stack(self):
        base = expand(builtin_by_name("plane_wave_dispersion"), GRID).scenario
        short = dataclasses.replace(base, n_steps=40, snapshot_every=20)
        fine = dataclasses.replace(short, dt=5e-4, n_steps=80)
        results = evolve_many([short, fine, short])
        for scenario, got in zip((short, fine, short), results):
            assert_same_run(got, evolve(scenario))
        assert results[1].final.t == results[0].final.t == 0.04


class TestSymmetricLimit:
    def test_evolve_matches_reference_for_free_and_harmonic(self):
        for name in ("free_gaussian_symmetric", "harmonic_ground_symmetric"):
            scenario = expand(builtin_by_name(name), GRID).scenario
            scenario = dataclasses.replace(scenario, n_steps=200,
                                           snapshot_every=100)
            run = evolve(scenario)
            ref = schrodinger_reference(scenario.psi0, scenario.potentials.vg[0],
                                        1.0, 1.0, scenario.dt, 200, 100)
            for a, b in zip(run.snapshots, ref.snapshots):
                assert np.max(np.abs(a.psi.values - b.psi.values)) < 1e-8

    def test_explicit_closure_cross_check(self):
        # with the closure-rule potentials the numerically computed coupling
        # terms are exactly zero (the stepper subtracts the very products
        # the closure rule gives), so the explicit route is the analytic
        # cancellation bit for bit: a wiring check, not a second
        # discretization
        analytic = []
        for name in ("free_gaussian_symmetric", "harmonic_ground_symmetric",
                     "double_well_symmetric", "plane_wave_dispersion",
                     "norm_drift_constant_Vg1"):
            base = expand(builtin_by_name(name), GRID).scenario
            for masses in ((1.0, 1.0), (1.0, 1.5)):
                for zeta in (1.0, 2.0):
                    analytic.append(dataclasses.replace(
                        base, params=DualParams(masses=masses, zeta=zeta),
                        dt=2e-5, n_steps=500, snapshot_every=250))
        explicit = [dataclasses.replace(
            s, closure_mode=EXPLICIT,
            potentials=PotentialSet(vg=s.potentials.vg, mode=SYMMETRIC_CLOSURE))
            for s in analytic]
        runs = evolve_many(analytic + explicit)
        for a, b in zip(runs[:len(analytic)], runs[len(analytic):]):
            assert len(a.snapshots) == len(b.snapshots) == 3
            for sa, sb in zip(a.snapshots, b.snapshots):
                assert np.array_equal(sa.psi.values, sb.psi.values)

    @pytest.mark.parametrize("zeta, windings", [
        pytest.param(1.0, 0, id="1.0"),
        pytest.param(2.0, 0, id="2.0"),
        pytest.param(1.0, 3, id="sloped-1.0"),
        pytest.param(2.0, 3, id="sloped-2.0"),
    ])
    def test_coevolved_hj_route_agrees(self, zeta, windings):
        # independent route: RK4 on the closure Hamilton-Jacobi system in
        # Madelung variables vs the split-step wavefunction solver; the
        # closure couplings must carry zeta, not hbar. A slope of S0 that
        # winds the phase a whole number of times keeps psi periodic, and
        # psi must carry it.
        p = DualParams(masses=(1.0, 1.0), zeta=zeta)
        two_pi = 2 * np.pi
        slope0 = zeta * two_pi * windings / GRID.length
        s0 = RealField(0.3 * np.sin(two_pi * GRID.x / GRID.length), GRID)
        s1 = RealField(1.0 - np.cos(two_pi * GRID.x / GRID.length), GRID)
        channels = ActionChannels((s0, s1), (slope0, 0.0))
        pot = PotentialSet.zeros(GRID, 2, mode=SYMMETRIC_CLOSURE)
        psi0 = to_wavefunction(RealField(slope0 * GRID.x + s0.values, GRID),
                               s1, p)
        dt, n = 1e-4, 2000
        co = coevolved_wavefunction_run(channels, pot, p, dt, n,
                                        snapshot_every=n)
        wave = evolve(WaveScenario(psi0=psi0, params=p, potentials=pot,
                                   dt=dt, n_steps=n, snapshot_every=n))
        assert np.max(np.abs(co.snapshots[0].psi.values - psi0.values)) < 1e-12
        assert np.max(np.abs(co.final.psi.values
                             - wave.final.psi.values)) < 1e-6

    @pytest.mark.parametrize("slopes", [(0.1, 0.0), (0.0, 0.5)],
                             ids=["fractional_winding", "sloped_S1"])
    def test_coevolved_rejects_non_periodic_psi(self, slopes):
        channels = ActionChannels((RealField.zeros(GRID),) * 2, slopes)
        with pytest.raises(ConfigurationError, match="non-periodic"):
            coevolved_wavefunction_run(
                channels, PotentialSet.zeros(GRID, 2, mode=SYMMETRIC_CLOSURE),
                P_SYM, 1e-4, 10)


class TestReference:
    def test_zeta_scaling_of_dispersion(self):
        k, psi = plane_wave()
        rates = []
        for zeta in (1.0, 2.0):
            run = schrodinger_reference(psi, None, 1.0, zeta, 1e-3, 200, 20)
            phases = np.unwrap([float(np.angle(np.vdot(psi.values,
                                                       s.psi.values)))
                                for s in run.snapshots])
            rates.append((phases[-1] - phases[0]) / run.final.t)
        assert abs(rates[0] + k ** 2 / 2) < 1e-8
        assert abs(rates[1] / rates[0] - 2.0) < 1e-8

    def test_harmonic_ground_energy(self):
        sigma = math.sqrt(0.5)
        psi = unit_gaussian(sigma=sigma)
        vg0 = RealField(0.5 * GRID.x ** 2, GRID)
        run = schrodinger_reference(psi, vg0, 1.0, 1.0, 1e-3, 100, 50)
        for snap in run.snapshots:
            assert abs(energy(snap.psi, vg0.values, 1.0, 1.0) - 0.5) < 1e-7

    def test_constant_potential_is_an_exact_phase(self):
        # psi0 exp(-i (zeta k^2 / 2m + Vg0 / zeta) t) at zeta = 2, m = 1
        k, psi = plane_wave()
        vg0 = RealField(np.full(GRID.n_points, 50.0), GRID)
        run = schrodinger_reference(psi, vg0, 1.0, 2.0, 1e-3, 500, 500)
        exact = psi.values * np.exp(-1j * (k * k + 25.0) * run.final.t)
        assert np.max(np.abs(run.final.psi.values - exact)) < 1e-10

    def test_zeta_in_evolve_matches_reference(self):
        k, psi = plane_wave()
        scenario = WaveScenario(psi0=psi,
                                params=DualParams(masses=(1.0, 1.0), zeta=2.0),
                                potentials=PotentialSet.zeros(GRID, 2),
                                dt=1e-3, n_steps=100, snapshot_every=100)
        run = evolve(scenario)
        ref = schrodinger_reference(psi, None, 1.0, 2.0, 1e-3, 100, 100)
        assert np.max(np.abs(run.final.psi.values
                             - ref.final.psi.values)) < 1e-10


@pytest.mark.parametrize("closure_mode", [SYMMETRIC_CLOSURE, EXPLICIT])
@pytest.mark.parametrize("zeta, vg0, vg1", [(1.0, 3.0, -0.5), (2.0, 50.0, -20.0)])
def test_plane_wave_under_constant_potentials_is_exact(zeta, vg0, vg1, closure_mode):
    """On a plane wave under constant (Vg0, Vg1) the kinetic propagator and
    the pointwise multiplier exp(a dt) each solve their part exactly and
    commute, so any number of Strang steps gives
    psi0 exp((-i c k^2 + (Vg1 - i Vg0) / zeta) t), c = zeta / (2 kinetic_mass).
    Explicit closure with the closure-rule couplings steps the same rate."""
    def constant(v0):
        return RealField(np.full(GRID.n_points, v0), GRID)

    k, psi = plane_wave()
    params = DualParams(masses=(1.0, 1.0), zeta=zeta)
    pot = PotentialSet((constant(vg0), constant(vg1)), mode=SYMMETRIC_CLOSURE)
    run = evolve(WaveScenario(psi0=psi, params=params, potentials=pot, dt=1e-3,
                              n_steps=500, snapshot_every=500,
                              closure_mode=closure_mode))
    c = zeta / (2.0 * params.kinetic_mass)
    exact = psi.values * np.exp((-1j * c * k * k + (vg1 - 1j * vg0) / zeta)
                                * run.final.t)
    error = np.max(np.abs(run.final.psi.values - exact)) / np.max(np.abs(exact))
    assert error < 1e-10


def test_scenario_validation():
    psi = unit_gaussian()
    pot = PotentialSet.zeros(GRID, 2)
    for dt in (0.0, math.nan, math.inf):
        with pytest.raises(ConfigurationError):
            WaveScenario(psi0=psi, params=P_SYM, potentials=pot, dt=dt, n_steps=1)
    with pytest.raises(ConfigurationError):
        WaveScenario(psi0=psi, params=P_SYM, potentials=pot, dt=1e-3,
                     n_steps=1, closure_mode="bogus")
    with pytest.raises(ConfigurationError):
        WaveScenario(psi0=psi, params=P_SYM, potentials=pot, dt=1e-3,
                     n_steps=1, nonlinear_term="maybe")


@pytest.mark.parametrize("masses, n_vg", [((1.0, 1.0, 1.0), 2), ((1.0, 1.0), 1)],
                         ids=["three_masses", "one_vg"])
def test_wave_run_has_exactly_two_channels(masses, n_vg):
    with pytest.raises(ConfigurationError, match=r"masses \(m0, m1\) and potentials"):
        WaveScenario(psi0=unit_gaussian(), params=DualParams(masses=masses),
                     potentials=PotentialSet.zeros(GRID, n_vg), dt=1e-3, n_steps=1)


@pytest.mark.parametrize("mode, closure_mode, accepted", [
    (SYMMETRIC_CLOSURE, EXPLICIT, True),
    (EXPLICIT, SYMMETRIC_CLOSURE, True),
    (EXPLICIT, EXPLICIT, False),
], ids=["explicit_with_closure_rule", "analytic", "explicit_with_zero_couplings"])
def test_wave_coupling_is_the_closure_rule(mode, closure_mode, accepted):
    """Explicit closure needs the closure-rule potentials: explicit coupling
    without the rule is ill-posed."""
    pot = PotentialSet.zeros(GRID, 2, mode)
    scenario = functools.partial(WaveScenario, psi0=unit_gaussian(), params=P_SYM,
                                 potentials=pot, dt=1e-3, n_steps=1,
                                 closure_mode=closure_mode)
    if accepted:
        scenario()
    else:
        with pytest.raises(ConfigurationError, match="closure rule"):
            scenario()


def test_stepping_checks_build_no_schedule():
    """Integration and WaveScenario check dt, n_steps and the cadence
    without the list of recorded steps, which at 10**6 steps takes ~36 MB."""
    psi, pot = unit_gaussian(), PotentialSet.zeros(GRID, 2)
    tracemalloc.start()
    try:
        Integration(1e-3, 10 ** 6, 1)
        WaveScenario(psi0=psi, params=P_SYM, potentials=pot, dt=1e-3, n_steps=10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 ** 6


@pytest.mark.parametrize("dt, snapshot_every", [(math.nan, 1), (1e-3, 0)],
                         ids=["dt_nan", "snapshot_every_0"])
@pytest.mark.parametrize("solve", [
    lambda dt, every: schrodinger_reference(unit_gaussian(), None, 1.0, 1.0,
                                            dt, 10, every),
    lambda dt, every: evolve_hj(
        ActionChannels((RealField.zeros(GRID), RealField.zeros(GRID))),
        PotentialSet.zeros(GRID, 2), P_SYM, dt, 10, every),
    lambda dt, every: integrate_rk4(bateman_rhs(OscParams()),
                                    [1.0, 0.0, 1.0, 0.0], dt, 10, every),
], ids=["schrodinger_reference", "evolve_hj", "integrate_rk4"])
def test_public_solvers_check_stepping(solve, dt, snapshot_every):
    with pytest.raises(ConfigurationError):
        solve(dt, snapshot_every)


class TestSpectralTail:
    """A row whose pointwise rate is a function of psi stops once more
    than 1e-12 of its spectral power lies above 2/3 of the Nyquist
    wavenumber and that share has grown 1e4-fold since t = 0; a linear
    row, exact in that band, runs on."""

    @staticmethod
    def edge_gaussian(n_steps, snapshot_every):
        # a Gaussian that does not vanish at the periodic edges holds
        # 3.4e-9 of its power above 2/3 of the Nyquist wavenumber at t = 0
        grid = Grid1D(64, -5.0, 5.0)
        return WaveScenario(psi0=unit_gaussian(grid, sigma=1.0), params=P_SYM,
                            potentials=PotentialSet.zeros(grid, 2), dt=1e-4,
                            n_steps=n_steps, snapshot_every=snapshot_every)

    def test_tail_fraction_of_known_spectrum(self):
        grid = Grid1D(64, -5.0, 5.0)
        # modes 8 and -21 lie below 2/3 of the Nyquist index 32, 22 and -32 above
        u = np.zeros((2, 64), dtype=complex)
        u[0, 8], u[0, 22], u[1, -21], u[1, 32] = 3.0, 1.0j, 2.0, 2.0
        assert _tail_fraction(u, grid).tolist() == [0.1, 0.5]

    def test_tail_held_from_t0_is_not_growth(self):
        linear = self.edge_gaussian(n_steps=8, snapshot_every=4)
        for changes in ({}, {"nonlinear_term": NONLINEAR_ON},
                        {"params": DualParams(masses=(1.0, 20.0))}):
            run = evolve(dataclasses.replace(linear, **changes))
            assert len(run.snapshots) == 3

    def test_mass_asymmetric_row_stops_once_its_tail_grows(self):
        # the mass-asymmetry term at masses (1, 20) grows the share from
        # 3.4e-9 to 1.2e-4 by step 3800, while the norm holds to 1e-12
        row = dataclasses.replace(self.edge_gaussian(n_steps=4000, snapshot_every=200),
                                  params=DualParams(masses=(1.0, 20.0)), dt=4e-3)
        assert len(evolve(dataclasses.replace(
            row, nonlinear_term=NONLINEAR_OFF)).snapshots) == 21
        with pytest.raises(BlowUpError,
                           match=r"^spectral tail \S+ at step 3800$") as err:
            evolve(row)
        tail = float(str(err.value).split()[2])
        assert 3.4e-5 < tail < 1e-3
        norms = [snap.norm for snap in err.value.partial.snapshots]
        assert max(abs(n - norms[0]) for n in norms) < 1e-12
