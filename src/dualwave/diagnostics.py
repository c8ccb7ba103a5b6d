"""Physical observables and deviation probes computed on run snapshots.

The quantum potential and the continuity residual quantify how far a run
sits from ideal Schrodinger behavior, at the action scale zeta; the rms
width is the natural length scale of a density. A wave run's summary rows
and its norm and phase rates are written here once, for `cli` and `verify`.
"""

from __future__ import annotations

import math

import numpy as np

from dualwave.core import Grid1D, RealField, spectral_derivative_values
from dualwave.madelung import AMPLITUDE_FLOOR


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


def probability_current(psi_values: np.ndarray, grid: Grid1D, mass: float,
                        zeta: float) -> np.ndarray:
    """J = (zeta/m) Im(psi* grad psi), the Madelung flux rho * grad(S0)/m."""
    grad = spectral_derivative_values(psi_values, grid, 1)
    return (zeta / mass) * np.imag(np.conj(psi_values) * grad)


def continuity_residual_l2(psi_prev: np.ndarray, psi_next: np.ndarray,
                           grid: Grid1D, delta_t: float, mass: float,
                           zeta: float) -> float:
    """L2 norm of d(rho)/dt + div J across one snapshot interval.

    The time derivative is the centered difference about the interval
    midpoint and the flux is evaluated on the averaged state, so the
    residual of an exact solution is O(dt^2).
    """
    rho_prev = np.abs(psi_prev) ** 2
    rho_next = np.abs(psi_next) ** 2
    mid = 0.5 * (psi_prev + psi_next)
    flux = probability_current(mid, grid, mass, zeta)
    resid = (rho_next - rho_prev) / delta_t + spectral_derivative_values(
        flux, grid, 1)
    return math.sqrt(float(np.sum(resid ** 2) * grid.dx))


def norm_rate(a, b) -> float:
    """(ln b.norm - ln a.norm) / (b.t - a.t): the norm's exponential rate
    between two snapshots."""
    return (math.log(b.norm) - math.log(a.norm)) / (b.t - a.t)


def phase_rate(run, psi0) -> float:
    """Rate of the unwrapped phase of <psi0|psi(t)> over a whole WaveRun."""
    phases = np.unwrap([float(np.angle(np.vdot(psi0.values, s.psi.values)))
                        for s in run.snapshots])
    return (phases[-1] - phases[0]) / (run.final.t - run.snapshots[0].t)


def summarize_run(run, mass: float, zeta: float) -> np.ndarray:
    """The (n, 5) summary rows of a WaveRun's n snapshots: t, norm, energy,
    norm drift rate and continuity residual, the last two differenced
    against the previous snapshot (0 for the first)."""
    snaps = run.snapshots
    rows = [(snaps[0].t, snaps[0].norm, snaps[0].energy, 0.0, 0.0)]
    for prev, snap in zip(snaps, snaps[1:]):
        rows.append((snap.t, snap.norm, snap.energy, norm_rate(prev, snap),
                     continuity_residual_l2(prev.psi.values, snap.psi.values,
                                            snap.psi.grid, snap.t - prev.t, mass, zeta)))
    return np.array(rows)
