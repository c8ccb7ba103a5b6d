"""Physical observables and deviation probes computed on run snapshots.

The quantum potential and the continuity residual quantify how far a run
sits from ideal Schrodinger behavior, at the action scale zeta; the rms
width is the natural length scale of a density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from dualwave.core import Grid1D, RealField, spectral_derivative_values


def quantum_potential(rho: RealField, mass: float, zeta: float,
                      floor_eps: float = 1e-12) -> RealField:
    """Q = -(zeta^2/2m) lap(sqrt(rho)) / sqrt(rho) with a spectral Laplacian.

    rho is floored at (floor_eps^2 * max rho), applied additively so the
    regularized density stays smooth through nodes. Q is invariant under
    rho -> c*rho for c > 0 (the floor scales with max rho).
    """
    vals = rho.values
    if np.any(vals < 0):
        raise ValueError("rho must be non-negative")
    rmax = float(np.max(vals))
    if rmax == 0.0:
        raise ValueError("rho is identically zero")
    amp = np.sqrt(vals + (floor_eps ** 2) * rmax)
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


@dataclass(frozen=True)
class SnapshotReport:
    """Scalar diagnostics for one snapshot of a wave run."""

    t: float
    norm: float
    energy: float
    norm_drift_rate: float
    continuity_residual_l2: float


def report(prev, snap, mass: float, zeta: float) -> SnapshotReport:
    """Diagnostics for `snap`, differenced against the previous snapshot.

    Pass prev=None for the first snapshot; backward-difference quantities
    are then reported as 0.
    """
    if prev is None:
        drift = 0.0
        resid = 0.0
    else:
        delta_t = snap.t - prev.t
        drift = (math.log(snap.norm) - math.log(prev.norm)) / delta_t
        resid = continuity_residual_l2(
            prev.psi.values, snap.psi.values, snap.psi.grid, delta_t, mass, zeta)
    return SnapshotReport(
        t=snap.t, norm=snap.norm, energy=snap.energy, norm_drift_rate=drift,
        continuity_residual_l2=resid)


def summarize_run(run, mass: float, zeta: float) -> list:
    """Per-snapshot reports for a whole WaveRun."""
    out = []
    prev = None
    for snap in run.snapshots:
        out.append(report(prev, snap, mass, zeta))
        prev = snap
    return out
