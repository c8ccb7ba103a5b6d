import dataclasses
import math
import warnings

import numpy as np
import pytest

from dualwave.core import (
    BlowUpError,
    ComplexField,
    ConfigurationError,
    DualParams,
    RealField,
    spectral_derivative_values,
)
from dualwave.hamilton_jacobi import (
    EXPLICIT,
    SYMMETRIC_CLOSURE,
    ActionChannels,
    PotentialSet,
    evolve_hj,
)
from dualwave.madelung import to_wavefunction
from dualwave.scenarios import DEFAULT_GRID, builtin_by_name, expand
from dualwave.wavesolver import (
    NONLINEAR_OFF,
    NONLINEAR_ON,
    WaveRun,
    WaveScenario,
    _asymmetry_potential,
    _GeneralizedStepper,
    _strang_steps,
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
    dpsi/dt = i kinetic_coeff lap psi + (a + i nu W / z) psi."""
    return _GeneralizedStepper([WaveScenario(
        psi0=psi, params=params, potentials=pot, dt=1e-6, n_steps=0, **changes)])


def bracket(v):
    """psi* div(grad psi / psi*) - lap psi, which is exactly -W psi."""
    return -_asymmetry_potential(v, GRID) * v


class TestGeneralizedRhs:
    """The right-hand side's terms, read from the stepper that steps them."""

    def test_symmetric_closure_reduces_to_schrodinger_rhs(self):
        # i dpsi/dt = -(1/2) lap psi + Vg0 psi at m0 = m1 = 1, zeta = 1
        vg0 = RealField(0.5 * GRID.x ** 2, GRID)
        pot = PotentialSet((vg0, RealField.zeros(GRID)), None)
        psi = unit_gaussian(sigma=math.sqrt(0.5))
        stepper = rhs_stepper(psi, P_SYM, pot)
        assert not stepper.nonlinear
        assert stepper.kinetic_coeff[0, 0] == 0.5
        potential_term = stepper.frozen_rate(psi.values[None])[0] * psi.values
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
        on = rhs_stepper(psi, p, pot, closure_mode=EXPLICIT,
                         nonlinear_term=NONLINEAR_ON)
        off = rhs_stepper(psi, p, pot, closure_mode=EXPLICIT,
                          nonlinear_term=NONLINEAR_OFF)
        # switching the term on adds the asymmetry rate and nothing else
        assert on.nonlinear and not off.nonlinear
        assert np.array_equal(on.frozen_rate(v), off.frozen_rate(v))
        assert on.kinetic_coeff[0, 0] == off.kinetic_coeff[0, 0]
        nu = 0.25 * p.residual_inv_mass
        expected = nu * (-(k ** 2) * psi.values) / 1j
        assert np.max(np.abs(on.asymmetry_rate(v)[0] * psi.values
                             - expected)) < 1e-10

    def test_mass_symmetric_kills_nonlinear_term(self):
        _, psi = plane_wave()
        on = rhs_stepper(psi, P_SYM, PotentialSet.zeros(GRID, 2),
                         closure_mode=EXPLICIT, nonlinear_term=NONLINEAR_ON)
        assert not np.any(on.asymmetry_rate(psi.values[None]))

    def test_real_gaussian_symmetric_mode_pure_kinetic(self):
        psi = unit_gaussian()
        stepper = rhs_stepper(psi, P_SYM, PotentialSet.zeros(GRID, 2))
        assert not np.any(stepper.frozen_rate(psi.values[None]))
        lap = spectral_derivative_values(psi.values, GRID, 2)
        expected = (-(1.0 / (4 * P_SYM.reduced_mass)) * lap) / 1j
        kinetic_term = 1j * stepper.kinetic_coeff[0, 0] * lap
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
                            RealField.zeros(GRID)), None)
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
                            RealField(np.full(GRID.n_points, 40.0), GRID)), None)
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
                            RealField(np.full(GRID.n_points, 1e5), GRID)), None)
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
        e0 = run.snapshots[0].energy
        assert max(abs(s.energy - e0) for s in run.snapshots) < 1e-6

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


def fft_calls_of_three_steps(monkeypatch, scenarios) -> int:
    """FFT calls of three time steps of `evolve_many(scenarios)`, counted
    exactly from two runs that differ only in their step count."""
    calls = [0]

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    for fft_name in ("fft", "ifft", "rfft", "irfft"):
        monkeypatch.setattr(np.fft, fft_name, counting(getattr(np.fft, fft_name)))

    def count(n):
        calls[0] = 0
        runs = evolve_many([dataclasses.replace(s, n_steps=n, snapshot_every=n)
                            for s in scenarios])
        assert all(isinstance(run, WaveRun) for run in runs)
        return calls[0]

    # set-up and snapshot work cancel in the difference
    return count(6) - count(3)


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
            v = _strang_steps(v, stepper, 1)
            if step % 7 == 0 or step == scenario.n_steps:
                times.append(step * scenario.dt)
                states.append(v[0])
        run = evolve(scenario)
        assert len(run.snapshots) == len(states) == 287
        assert np.array_equal(run.times, np.array(times))
        for snap, ref in zip(run.snapshots, states):
            assert np.max(np.abs(snap.psi.values - ref)) <= 1e-12

    @pytest.mark.parametrize("n_steps, snapshot_every, steps",
                             [(0, 1, [0]), (0, 10, [0]), (5, 10, [0, 5]),
                              (100, 7, [0, *range(7, 100, 7), 100])])
    def test_snapshot_cadence(self, n_steps, snapshot_every, steps):
        scenario = self.harmonic(n_steps, snapshot_every)
        dt = scenario.dt
        expected = np.array(steps) * dt
        run = evolve(scenario)
        ref = schrodinger_reference(scenario.psi0, scenario.potentials.vg[0],
                                    1.0, 1.0, dt, n_steps, snapshot_every)
        assert np.array_equal(run.times, expected)
        assert np.array_equal(ref.times, expected)
        assert np.array_equal(run.snapshots[0].psi.values,
                              scenario.psi0.values)

    @pytest.mark.parametrize("name, changes, per_step", [
        ("harmonic_ground_symmetric", {}, 2),
        ("residual_mass_plane_wave", {}, 6),
        ("free_gaussian_symmetric", {"closure_mode": EXPLICIT}, 6),
    ])
    def test_fft_calls_per_step(self, monkeypatch, name, changes, per_step):
        scenario = expand(builtin_by_name(name), GRID).scenario
        if changes:
            closure = PotentialSet(vg=scenario.potentials.vg,
                                   mode=SYMMETRIC_CLOSURE)
            scenario = dataclasses.replace(scenario, potentials=closure,
                                           **changes)
        assert fft_calls_of_three_steps(monkeypatch, [scenario]) == 3 * per_step

    @pytest.mark.parametrize("kinds, per_step", [
        (("linear",), 2),
        (("linear",) * 4, 2),
        (("nonlinear",), 6),
        (("nonlinear", "linear"), 8),
        (("nonlinear", "linear") * 4, 8),  # a sweep of m1 over four values
        (("explicit",) * 3, 6),
        (("linear", "nonlinear", "explicit"), 14),
        (("explicit", "nonlinear", "linear") * 2, 14),
    ])
    def test_fft_calls_per_step_of_a_stack(self, monkeypatch, kinds, per_step):
        """Each row kind forms its own stack, and a stack's counts do not
        grow with its number of rows: 2 linear, 6 mass-asymmetric, 6
        explicit; a call that mixes kinds sums one stack per kind."""
        base = expand(builtin_by_name("residual_mass_plane_wave"), GRID).scenario
        closure = PotentialSet(vg=base.potentials.vg, mode=SYMMETRIC_CLOSURE)
        changes = {"linear": {"nonlinear_term": NONLINEAR_OFF},
                   "nonlinear": {},
                   "explicit": {"nonlinear_term": NONLINEAR_OFF,
                                "closure_mode": EXPLICIT, "potentials": closure}}
        stack = [dataclasses.replace(
            base, params=DualParams(masses=(1.0, 1.1 + 0.1 * i)), **changes[kind])
            for i, kind in enumerate(kinds)]
        assert fft_calls_of_three_steps(monkeypatch, stack) == 3 * per_step


def assert_same_run(got: WaveRun, want: WaveRun):
    assert len(got.snapshots) == len(want.snapshots)
    for a, b in zip(got.snapshots, want.snapshots):
        assert a.t == b.t and a.norm == b.norm and a.energy == b.energy
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
                                None, SYMMETRIC_CLOSURE)
        growing = PotentialSet((RealField.zeros(GRID),
                                RealField(np.full(GRID.n_points, 1e5), GRID)), None)
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
            (wave, sym2, zeros, {"closure_mode": EXPLICIT}),
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

    def test_floor_flag_is_set_per_row(self):
        """In one explicit-closure stack only the rows whose extraction hits
        the amplitude floor report it, a blown-up row on its partial run."""
        closure = PotentialSet.zeros(GRID, 2, mode=SYMMETRIC_CLOSURE)
        growing = PotentialSet((RealField.zeros(GRID),
                                RealField(np.full(GRID.n_points, 1e5), GRID)),
                               None, SYMMETRIC_CLOSURE)
        _, wave = plane_wave()
        rows = [(unit_gaussian(), closure), (wave, closure), (unit_gaussian(), growing)]
        stack = [WaveScenario(psi0=psi, params=P_SYM, potentials=pot, dt=1e-5,
                              n_steps=60, snapshot_every=25, closure_mode=EXPLICIT)
                 for psi, pot in rows]
        gaussian, plane, blown = evolve_many(stack)
        assert isinstance(blown, BlowUpError)
        assert [gaussian.floor_engaged, plane.floor_engaged,
                blown.partial.floor_engaged] == [True, False, True]
        assert not evolve(dataclasses.replace(
            stack[0], closure_mode=SYMMETRIC_CLOSURE)).floor_engaged

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
        # closure_couplings returns), so the explicit route is the analytic
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
            assert abs(snap.energy - 0.5) < 1e-7

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


@pytest.mark.parametrize("dt, snapshot_every", [(math.nan, 1), (1e-3, 0)],
                         ids=["dt_nan", "snapshot_every_0"])
@pytest.mark.parametrize("solve", [
    lambda dt, every: schrodinger_reference(unit_gaussian(), None, 1.0, 1.0,
                                            dt, 10, every),
    lambda dt, every: evolve_hj(
        ActionChannels((RealField.zeros(GRID), RealField.zeros(GRID))),
        PotentialSet.zeros(GRID, 2), P_SYM, dt, 10, every),
], ids=["schrodinger_reference", "evolve_hj"])
def test_public_solvers_check_stepping(solve, dt, snapshot_every):
    with pytest.raises(ConfigurationError):
        solve(dt, snapshot_every)
