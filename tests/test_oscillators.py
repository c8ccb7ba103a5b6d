import math

import numpy as np
import pytest

from dualwave.core import BlowUpError, ConfigurationError
from dualwave.oscillators import (
    OscParams,
    bateman_rhs,
    bateman_velocity_coupling,
    caldirola_kanai_rhs,
    ck_hamiltonian,
    damped_oscillator_solution,
    dekker_complex_rhs,
    dekker_energies,
    integrate_rk4,
    mechanical_energy,
)

DAMPED = OscParams(gamma=0.2)
UNDAMPED = OscParams(gamma=0.0)


class TestBateman:
    def test_rhs_formula(self):
        s = np.array([1.0, 2.0, 3.0, 4.0])
        d = bateman_rhs(s, DAMPED)
        w2 = DAMPED.omega ** 2
        assert np.allclose(d, [2.0, -0.2 * 2.0 - w2 * 1.0,
                               4.0, +0.2 * 4.0 - w2 * 3.0], rtol=0, atol=0)

    def test_undamped_energy_conserved_100_periods(self):
        T = 2 * math.pi
        dt = T / 1000
        traj = integrate_rk4(lambda s: bateman_rhs(s, UNDAMPED),
                             np.array([1.0, 0.0, 0.5, 0.3]), dt, 100 * 1000)
        ex = 0.5 * traj[:, 1] ** 2 + 0.5 * traj[:, 0] ** 2
        ey = 0.5 * traj[:, 3] ** 2 + 0.5 * traj[:, 2] ** 2
        assert np.max(np.abs(ex - ex[0])) < 1e-8
        assert np.max(np.abs(ey - ey[0])) < 1e-8

    def test_damped_sector_matches_closed_form(self):
        dt = 1e-3
        n = 10000
        traj = integrate_rk4(lambda s: bateman_rhs(s, DAMPED),
                             np.array([1.0, 0.0, 0.0, 0.0]), dt, n)
        t = np.arange(n + 1) * dt
        assert np.max(np.abs(traj[:, 0] - damped_oscillator_solution(t, DAMPED))) < 1e-6

    def test_reversed_mirror_solves_damped_equation(self):
        # integrate the anti-damped sector forward, reverse it in time, and
        # check the damped-equation residual by finite differences
        dt = 5e-4
        n = 20000
        traj = integrate_rk4(lambda s: bateman_rhs(s, DAMPED),
                             np.array([0.0, 0.0, 1.0, 0.0]), dt, n)
        y = traj[::-1, 2]
        ydd = (y[2:] - 2 * y[1:-1] + y[:-2]) / dt ** 2
        yd = (y[2:] - y[:-2]) / (2 * dt)
        resid = ydd + DAMPED.gamma * yd + DAMPED.omega ** 2 * y[1:-1]
        assert np.max(np.abs(resid)) < 1e-6

    def test_energy_transfer_rates(self):
        dt = 1e-3
        n = 10000
        p = DAMPED
        traj = integrate_rk4(lambda s: bateman_rhs(s, p),
                             np.array([1.0, 0.0, 1.0, 0.0]), dt, n)
        ex = 0.5 * p.mass * traj[:, 1] ** 2 + 0.5 * p.stiffness * traj[:, 0] ** 2
        ey = 0.5 * p.mass * traj[:, 3] ** 2 + 0.5 * p.stiffness * traj[:, 2] ** 2
        dex = (ex[2:] - ex[:-2]) / (2 * dt)
        dey = (ey[2:] - ey[:-2]) / (2 * dt)
        assert np.max(np.abs(dex + p.gamma * p.mass * traj[1:-1, 1] ** 2)) < 1e-6
        assert np.max(np.abs(dey - p.gamma * p.mass * traj[1:-1, 3] ** 2)) < 1e-6


class TestCaldirolaKanai:
    def test_hamiltonian_equals_energy_at_t0(self):
        s = np.array([0.7, -1.2])
        assert ck_hamiltonian(s, 0.0, DAMPED) == pytest.approx(
            mechanical_energy(0.7, -1.2, DAMPED), abs=1e-15)

    def test_hamiltonian_conserved_when_undamped(self):
        dt = 1e-3
        n = 10000
        traj = integrate_rk4(lambda s: caldirola_kanai_rhs(s, UNDAMPED),
                             np.array([1.0, 0.0]), dt, n)
        h = [ck_hamiltonian(traj[i], i * dt, UNDAMPED) for i in range(0, n, 100)]
        assert np.max(np.abs(np.array(h) - h[0])) < 1e-8

    def test_hamiltonian_not_conserved_when_damped(self):
        dt = 1e-3
        traj = integrate_rk4(lambda s: caldirola_kanai_rhs(s, DAMPED),
                             np.array([1.0, 0.0]), dt, 3000)
        h0 = ck_hamiltonian(traj[0], 0.0, DAMPED)
        h1 = ck_hamiltonian(traj[3000], 3.0, DAMPED)
        assert abs(h1 - h0) > 1e-3

    def test_matches_bateman_x_sector(self):
        dt = 1e-3
        n = 10000
        ck = integrate_rk4(lambda s: caldirola_kanai_rhs(s, DAMPED),
                           np.array([1.0, 0.0]), dt, n)
        bat = integrate_rk4(lambda s: bateman_rhs(s, DAMPED),
                            np.array([1.0, 0.0, 0.0, 0.0]), dt, n)
        assert np.max(np.abs(ck[:, 0] - bat[:, 0])) < 1e-8


class TestDekker:
    def test_decoupled_shos_opposite_energies(self):
        dt = 1e-3
        n = 10000
        no_coupling = lambda gamma, a, adot, b, bdot: 0.0
        traj = integrate_rk4(
            lambda s: dekker_complex_rhs(s, DAMPED, no_coupling),
            np.array([1.0, 0.0, 0.5, 0.2]), dt, n)
        e0 = dekker_energies(traj[0], DAMPED)
        assert e0[0] > 0 and e0[1] < 0
        for idx in range(0, n + 1, 1000):
            ex, ey = dekker_energies(traj[idx], DAMPED)
            assert abs(ex - e0[0]) < 1e-8
            assert abs(ey - e0[1]) < 1e-8

    def test_damped_sector_envelope(self):
        # default coupling must reproduce the exp(-gamma t/2) envelope over
        # 10 periods; checked against the closed form and a dt/10 reference
        dt = 1e-3
        n = int(round(10 * 2 * math.pi / dt))
        traj = integrate_rk4(lambda s: dekker_complex_rhs(s, DAMPED),
                             np.array([1.0, 0.0, 1.0, 0.0]), dt, n)
        t = np.arange(n + 1) * dt
        exact = damped_oscillator_solution(t, DAMPED)
        envelope = np.exp(-0.5 * DAMPED.gamma * t)
        assert np.max(np.abs(traj[:, 0] - exact)) < 0.02 * np.max(envelope)
        ref = integrate_rk4(lambda s: dekker_complex_rhs(s, DAMPED),
                            np.array([1.0, 0.0, 1.0, 0.0]), dt / 10, 10 * n)
        assert abs(traj[-1, 0] - ref[-1, 0]) < 1e-8

    def test_exchange_swaps_trajectories_bitwise(self):
        dt = 1e-3
        n = 2000
        flipped = lambda gamma, a, adot, b, bdot: -bateman_velocity_coupling(
            gamma, a, adot, b, bdot)
        fwd = integrate_rk4(lambda s: dekker_complex_rhs(s, DAMPED),
                            np.array([1.0, 0.3, -0.5, 0.2]), dt, n)
        swp = integrate_rk4(lambda s: dekker_complex_rhs(s, DAMPED, flipped),
                            np.array([-0.5, 0.2, 1.0, 0.3]), dt, n)
        assert np.array_equal(fwd[:, 0], swp[:, 2])
        assert np.array_equal(fwd[:, 1], swp[:, 3])
        assert np.array_equal(fwd[:, 2], swp[:, 0])
        assert np.array_equal(fwd[:, 3], swp[:, 1])


class TestIntegrateRK4:
    def test_sho_period_return(self):
        T = 2 * math.pi
        dt = T / 1000
        traj = integrate_rk4(lambda s: bateman_rhs(s, UNDAMPED),
                             np.array([1.0, 0.0, 0.0, 0.0]), dt, 1000)
        assert abs(traj[-1, 0] - 1.0) < 1e-9
        assert abs(traj[-1, 1]) < 1e-9

    def test_zero_steps_returns_initial(self):
        s0 = np.array([1.0, 2.0])
        traj = integrate_rk4(lambda s: caldirola_kanai_rhs(s, DAMPED), s0, 0.1, 0)
        assert traj.shape == (1, 2)
        assert np.array_equal(traj[0], s0)

    def test_fourth_order_convergence_vs_fine_reference(self):
        t_end = 10.0
        ref = integrate_rk4(lambda s: caldirola_kanai_rhs(s, DAMPED),
                            np.array([1.0, 0.0]), 0.002, 5000)[-1, 0]
        errs = [abs(integrate_rk4(lambda s: caldirola_kanai_rhs(s, DAMPED),
                                  np.array([1.0, 0.0]), dt,
                                  int(round(t_end / dt)))[-1, 0] - ref)
                for dt in (0.02, 0.01)]
        assert 12.0 <= errs[0] / errs[1] <= 20.0

    def test_blowup_signal_carries_partial_trajectory(self):
        # anti-damped sector grows without bound; expect a clean signal
        p = OscParams(gamma=2.0)
        with pytest.raises(BlowUpError) as info:
            integrate_rk4(lambda s: bateman_rhs(s, p),
                          np.array([0.0, 0.0, 1.0, 0.0]), 0.05, 10 ** 6)
        err = info.value
        assert err.step > 0
        assert err.partial.shape == (err.step + 1, 4)
        assert np.all(np.isfinite(err.partial[:-1]))

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            integrate_rk4(lambda s: s, np.array([1.0]), 0.0, 10)

    @pytest.mark.parametrize("dt, n_steps", [(math.nan, 10), (math.inf, 10), (0.1, -1)],
                             ids=["dt_nan", "dt_inf", "n_steps_negative"])
    def test_rejects_stepping_no_run_can_use(self, dt, n_steps):
        with pytest.raises(ConfigurationError):
            integrate_rk4(lambda s: s, np.array([1.0]), dt, n_steps)


def array_rk4(rhs, state0, dt, n_steps):
    """Reference RK4 on NumPy arrays, the float loop's operation order."""
    state = np.asarray(state0, dtype=float)
    traj = np.empty((n_steps + 1, state.size))
    traj[0] = state
    for step in range(1, n_steps + 1):
        k1 = np.array(rhs(state))
        k2 = np.array(rhs(state + 0.5 * dt * k1))
        k3 = np.array(rhs(state + 0.5 * dt * k2))
        k4 = np.array(rhs(state + dt * k3))
        state = state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        traj[step] = state
        if not np.all(np.isfinite(state)) or np.max(np.abs(state)) > 1e12:
            raise BlowUpError(f"blow-up at step {step}", step=step,
                              partial=traj[: step + 1])
    return traj


def flipped_coupling(gamma, a, adot, b, bdot):
    return -bateman_velocity_coupling(gamma, a, adot, b, bdot)


class TestFloatLoopMatchesArrayReference:
    @pytest.mark.parametrize("rhs, state0", [
        (lambda s: bateman_rhs(s, DAMPED), [1.0, 0.3, -0.5, 0.2]),
        (lambda s: caldirola_kanai_rhs(s, DAMPED), [1.0, -0.4]),
        (lambda s: dekker_complex_rhs(s, DAMPED), [1.0, 0.3, -0.5, 0.2]),
        (lambda s: dekker_complex_rhs(s, DAMPED, flipped_coupling),
         [-0.5, 0.2, 1.0, 0.3]),
    ], ids=["bateman", "ck", "dekker", "dekker_flipped"])
    def test_bitwise_equal(self, rhs, state0):
        traj = integrate_rk4(rhs, np.array(state0), 1e-3, 3000)
        ref = array_rk4(rhs, np.array(state0), 1e-3, 3000)
        assert traj.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("bad", [math.nan, 1e13], ids=["nan", "overflow"])
    def test_blowup_in_a_later_component(self, bad):
        # component 0 is the clock; component 2 turns bad in step 3's k4
        # stage, while components 0 and 1 stay finite and small
        def rhs(s):
            return (1.0, 0.0, bad if s[0] > 2.5 else 0.0)

        with pytest.raises(BlowUpError) as info:
            integrate_rk4(rhs, np.zeros(3), 1.0, 10)
        with pytest.raises(BlowUpError) as ref:
            array_rk4(rhs, np.zeros(3), 1.0, 10)
        err = info.value
        assert err.step == ref.value.step == 3
        assert err.partial.shape == (err.step + 1, 3)
        assert err.partial.tobytes() == ref.value.partial.tobytes()


class TestCrossFormalism:
    def test_all_three_produce_identical_damped_trajectory(self):
        dt = 1e-3
        n = 5000
        bat = integrate_rk4(lambda s: bateman_rhs(s, DAMPED),
                            np.array([1.0, 0.0, 0.0, 0.0]), dt, n)
        ck = integrate_rk4(lambda s: caldirola_kanai_rhs(s, DAMPED),
                           np.array([1.0, 0.0]), dt, n)
        dek = integrate_rk4(lambda s: dekker_complex_rhs(s, DAMPED),
                            np.array([1.0, 0.0, 0.0, 0.0]), dt, n)
        assert np.max(np.abs(bat[:, 0] - ck[:, 0])) < 1e-8
        assert np.max(np.abs(bat[:, 0] - dek[:, 0])) < 1e-8


def test_underdamped_flag_and_omega():
    assert OscParams(gamma=1.9).is_underdamped
    assert not OscParams(gamma=2.0).is_underdamped
    assert math.isnan(OscParams(gamma=2.5).omega_damped)
    p = OscParams(mass=2.0, stiffness=8.0)
    assert p.omega == pytest.approx(2.0)
