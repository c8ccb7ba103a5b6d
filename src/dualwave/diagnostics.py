"""Physical observables and deviation probes computed on run snapshots.

The quantum potential quantifies how far a density sits from ideal
Schrodinger behavior, at the action scale zeta; the rms width is the
natural length scale of a density. A wave run's summary rows (with the
count of samples at which the inverse Madelung map clamps), energy, rates
and phase shift are written here once, for `cli` and `verify`.
"""

from __future__ import annotations

import math

import numpy as np

from dualwave.core import ComplexField, RealField, spectral_derivative_values
from dualwave.madelung import AMPLITUDE_FLOOR, clamped_count


def quantum_potential(rho: RealField, mass: float, zeta: float) -> RealField:
    """Q = -(zeta^2/2m) lap(sqrt(rho)) / sqrt(rho) with a spectral Laplacian.

    rho is floored at (AMPLITUDE_FLOOR^2 * max rho), applied additively so
    the regularized density stays smooth through nodes. Q is invariant under
    rho -> c*rho for c > 0 (the floor scales with max rho).
    """
    vals = rho.values
    if np.any(vals < 0):
        raise ValueError("rho must be non-negative")
    rmax = float(np.max(vals))
    if rmax == 0.0:
        raise ValueError("rho is identically zero")
    amp = np.sqrt(vals + (AMPLITUDE_FLOOR ** 2) * rmax)
    lap = spectral_derivative_values(amp, rho.grid, 2)
    return RealField(-(zeta ** 2 / (2.0 * mass)) * lap / amp, rho.grid)


def rms_width(rho: RealField) -> float:
    """Root-mean-square width of a density profile (its natural length scale)."""
    vals = rho.values
    x = rho.grid.x
    total = float(np.sum(vals))
    if total <= 0.0:
        raise ValueError("rho must have positive mass")
    mean = float(np.sum(x * vals)) / total
    var = float(np.sum((x - mean) ** 2 * vals)) / total
    return math.sqrt(max(var, 0.0))


def energy(psi: ComplexField, vg0: np.ndarray, mass: float, zeta: float) -> float:
    """The integral of (zeta^2/2 mass) |grad psi|^2 + Vg0 |psi|^2, with `mass`
    the kinetic mass 2 m_red of the wave equation and Vg0 as samples."""
    v, grid = psi.values, psi.grid
    grad = spectral_derivative_values(v, grid, 1)
    dens = (zeta ** 2 / (2.0 * mass)) * np.abs(grad) ** 2 + vg0 * np.abs(v) ** 2
    return float(np.sum(dens) * grid.dx)


def norm_rate(a, b) -> float:
    """(ln b.norm - ln a.norm) / (b.t - a.t): the norm's exponential rate
    between two snapshots."""
    return (math.log(b.norm) - math.log(a.norm)) / (b.t - a.t)


def overlap_phase(psi0: ComplexField, psi: ComplexField) -> float:
    """arg <psi0|psi>, the phase of a state's overlap with psi0."""
    return float(np.angle(np.vdot(psi0.values, psi.values)))


def unwrapped_rate(phases, t0: float, t1: float) -> float:
    """Rate of the unwrapped phase from its samples at t0, ..., t1."""
    phases = np.unwrap(phases)
    return (phases[-1] - phases[0]) / (t1 - t0)


def phase_rate(run, psi0) -> float:
    """Rate of the unwrapped phase of <psi0|psi(t)> over a whole WaveRun."""
    return unwrapped_rate([overlap_phase(psi0, s.psi) for s in run.snapshots],
                          run.snapshots[0].t, run.final.t)


def phase_shift(off_run, on_run) -> float:
    """The phase the mass-asymmetry term adds over a run: arg <psi_off|psi_on>
    at the end of the runs of one scenario without and with that term."""
    return float(np.angle(np.vdot(off_run.final.psi.values, on_run.final.psi.values)))


def summarize_run(run, vg0: np.ndarray, mass: float, zeta: float) -> np.ndarray:
    """The (n, 5) summary rows of a WaveRun's n snapshots: t, norm, energy
    at the guiding potential Vg0, the norm drift rate against the previous
    snapshot (0 for the first) and the number of samples at which the
    inverse Madelung map clamps |psi|^2 (`madelung.clamped_count`)."""
    snaps = run.snapshots
    rates = [0.0] + [norm_rate(prev, snap) for prev, snap in zip(snaps, snaps[1:])]
    return np.array([(s.t, s.norm, energy(s.psi, vg0, mass, zeta), rate,
                      clamped_count(s.psi)) for s, rate in zip(snaps, rates)])
