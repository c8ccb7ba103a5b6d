import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualwave.core import ComplexField, RealField
from dualwave.diagnostics import (
    norm_rate,
    phase_rate,
    quantum_potential,
    rms_width,
    summarize_run,
)
from dualwave.scenarios import DEFAULT_GRID, builtin_by_name, expand
from dualwave.wavesolver import evolve, schrodinger_reference

GRID = DEFAULT_GRID


class TestQuantumPotential:
    def test_uniform_density_gives_zero(self):
        rho = RealField(np.full(GRID.n_points, 3.0), GRID)
        q = quantum_potential(rho, 1.0, 1.0)
        assert np.max(np.abs(q.values)) < 1e-12

    def test_gaussian_closed_form(self):
        sigma = 0.5
        rho = RealField(np.exp(-GRID.x ** 2 / (2 * sigma ** 2)), GRID)
        q = quantum_potential(rho, 1.0, 1.0)
        exact = -0.5 * (GRID.x ** 2 / (4 * sigma ** 4) - 1 / (2 * sigma ** 2))
        mask = rho.values >= 1e-3
        dev = np.abs(q.values - exact) / np.maximum(1.0, np.abs(exact))
        assert np.max(dev[mask]) < 1e-8

    def test_harmonic_ground_state_balance(self):
        # rho of the unit-oscillator ground state; Q + V should equal E0
        rho = RealField(np.exp(-GRID.x ** 2), GRID)
        q = quantum_potential(rho, 1.0, 1.0)
        balance = q.values + 0.5 * GRID.x ** 2 - 0.5
        mask = rho.values >= 1e-3
        assert np.max(np.abs(balance[mask])) < 1e-7

    @given(st.floats(0.1, 100.0))
    @settings(max_examples=20, deadline=None)
    def test_scale_invariance(self, c):
        rho = RealField(np.exp(-GRID.x ** 2), GRID)
        q1 = quantum_potential(rho, 1.0, 1.0)
        q2 = quantum_potential(RealField(c * rho.values, GRID), 1.0, 1.0)
        mask = rho.values >= 1e-3
        assert np.max(np.abs(q1.values - q2.values)[mask]) < 1e-10

    def test_rejects_zero_and_negative(self):
        with pytest.raises(ValueError):
            quantum_potential(RealField.zeros(GRID), 1.0, 1.0)
        bad = np.ones(GRID.n_points)
        bad[3] = -0.5
        with pytest.raises(ValueError):
            quantum_potential(RealField(bad, GRID), 1.0, 1.0)


class TestRmsWidth:
    def test_gaussian_rms_width_is_sigma(self):
        sigma = 0.7
        rho = RealField(np.exp(-GRID.x ** 2 / (2 * sigma ** 2)), GRID)
        assert rms_width(rho) == pytest.approx(sigma, rel=1e-6)


def vg0_of(scenario):
    return scenario.potentials.values[0]


class TestReports:
    def test_symmetric_free_run_has_tiny_drift(self):
        scenario = expand(builtin_by_name("free_gaussian_symmetric"), GRID).scenario
        run = evolve(scenario)
        summary = summarize_run(run, vg0_of(scenario), 1.0, 1.0)
        assert np.max(np.abs(summary[1:, 3])) < 1e-9

    def test_drift_rate_matches_imaginary_potential(self):
        lam = 0.5
        scenario = expand(builtin_by_name("norm_drift_constant_Vg1"), GRID).scenario
        run = evolve(scenario)
        summary = summarize_run(run, vg0_of(scenario), 1.0, 1.0)
        for drift in summary[1:, 3]:
            assert abs(drift + 2 * lam) / (2 * lam) < 1e-4
        rate = norm_rate(run.snapshots[0], run.final)
        assert abs(rate + 2 * lam) / (2 * lam) < 1e-4

    def test_harmonic_ground_energy_reported(self):
        scenario = expand(builtin_by_name("harmonic_ground_symmetric"), GRID).scenario
        run = evolve(scenario)
        summary = summarize_run(run, vg0_of(scenario), 1.0, 1.0)
        assert summary.shape == (len(run.snapshots), 5)
        assert np.array_equal(summary[:, 0], [s.t for s in run.snapshots])
        for energy in summary[:, 2]:
            assert abs(energy - 0.5) < 1e-7

    def test_first_snapshot_report_is_finite(self):
        scenario = expand(builtin_by_name("free_gaussian_symmetric"), GRID).scenario
        run = evolve(scenario)
        first = summarize_run(run, vg0_of(scenario), 1.0, 1.0)[0]
        assert first[1] == run.snapshots[0].norm
        assert first[3] == 0.0
        assert first[4] == 485  # samples the inverse map clamps (test_madelung)

    @pytest.mark.parametrize("zeta", [1.0, 2.0])
    def test_phase_rate_of_plane_wave(self, zeta):
        # <psi0|psi(t)> of a plane wave turns at -zeta k^2 / 2m
        k = 2.0 * np.pi * 8 / GRID.length
        psi0 = ComplexField(np.exp(1j * k * GRID.x), GRID)
        run = schrodinger_reference(psi0, None, 1.0, zeta, 1e-3, 500, 25)
        expected = -zeta * k ** 2 / 2.0
        assert abs(phase_rate(run, psi0) - expected) / abs(expected) < 1e-8

    def test_interference_run_visibility_pinned(self):
        # equal-amplitude two-path collision: near-unit fringe contrast in
        # the central window; value frozen from a verified run
        exp = expand(builtin_by_name("interference_two_gaussian"), GRID)
        run = evolve(exp.scenario)
        rho = np.abs(run.final.psi.values) ** 2
        frac = (0.45, 0.55)
        seg = rho[int(frac[0] * GRID.n_points):int(frac[1] * GRID.n_points)]
        vis = (seg.max() - seg.min()) / (seg.max() + seg.min())
        assert vis == pytest.approx(0.9998778077192557, rel=1e-9)
