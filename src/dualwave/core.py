"""Shared numerical substrate: periodic grid, field containers, spectral
calculus and the dual-sector parameters.

Everything downstream (oscillators, Hamilton-Jacobi fields, wave solvers)
works on a uniform periodic 1D grid. Derivatives are computed in Fourier
space, so they are exact for band-limited fields; quadrature is the
rectangle rule, which is spectrally accurate for smooth periodic
integrands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class BlowUpError(RuntimeError):
    """An integration blew up; carries the step index and partial output.

    Attributes:
        step: index of the step at which the overflow/caustic was detected.
        partial: whatever trajectory prefix was completed before detection.
    """

    def __init__(self, message, step, partial=None):
        super().__init__(message)
        self.step = step
        self.partial = partial


class ConfigurationError(ValueError):
    """A scenario/run configuration is invalid (maps to CLI exit code 2)."""


def check_stepping(dt: float, n_steps: int, snapshot_every: int):
    """Reject a step size, step count or snapshot cadence no run can use."""
    if not 0 < dt < math.inf:
        raise ConfigurationError(f"dt must be positive and finite, got {dt}")
    if n_steps < 0:
        raise ConfigurationError(f"n_steps must be >= 0, got {n_steps}")
    if snapshot_every < 1:
        raise ConfigurationError(
            f"snapshot_every must be >= 1, got {snapshot_every}")


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic grid on [x_min, x_max) with a power-of-two point count."""

    n_points: int
    x_min: float
    x_max: float

    def __post_init__(self):
        n = self.n_points
        if n <= 0 or (n & (n - 1)) != 0:
            raise ConfigurationError(
                f"n_points must be a positive power of two, got {n}")
        if not self.x_max > self.x_min:
            raise ConfigurationError(
                f"empty domain: x_min={self.x_min}, x_max={self.x_max}")

    @property
    def length(self) -> float:
        return self.x_max - self.x_min

    @property
    def dx(self) -> float:
        return self.length / self.n_points

    @cached_property
    def x(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n_points)

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """Angular wavenumbers k_j = 2*pi*j/L in FFT layout."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n_points, d=self.dx)

    @cached_property
    def wavenumbers_real(self) -> np.ndarray:
        """Angular wavenumbers for the real-input (rfft) layout."""
        return 2.0 * np.pi * np.fft.rfftfreq(self.n_points, d=self.dx)

    @cached_property
    def derivative_multipliers(self) -> dict:
        """(1j*k)^order for orders 1, 2 keyed by (order, rfft_layout); the
        Nyquist mode (index n/2 in both layouts) is zeroed for odd orders."""
        out = {}
        for real, k in ((False, self.wavenumbers), (True, self.wavenumbers_real)):
            for order in (1, 2):
                out[order, real] = (1j * k) ** order
            out[1, real][self.n_points // 2] = 0.0
        return out

    @property
    def nyquist(self) -> float:
        return np.pi / self.dx


def _as_field_values(values, dtype, grid):
    arr = np.asarray(values, dtype=dtype)
    if arr.shape != (grid.n_points,):
        raise ValueError(
            f"field length {arr.shape} does not match grid ({grid.n_points},)")
    return arr


@dataclass(frozen=True)
class RealField:
    """Real-valued samples on a Grid1D (action channels, densities, potentials)."""

    values: np.ndarray
    grid: Grid1D

    def __post_init__(self):
        object.__setattr__(
            self, "values", _as_field_values(self.values, np.float64, self.grid))

    @classmethod
    def zeros(cls, grid) -> "RealField":
        return cls(np.zeros(grid.n_points), grid)


@dataclass(frozen=True)
class ComplexField:
    """Complex-valued samples on a Grid1D (wavefunctions)."""

    values: np.ndarray
    grid: Grid1D

    def __post_init__(self):
        object.__setattr__(
            self, "values", _as_field_values(self.values, np.complex128, self.grid))

    @classmethod
    def zeros(cls, grid) -> "ComplexField":
        return cls(np.zeros(grid.n_points, dtype=np.complex128), grid)


def spectral_derivative_values(values: np.ndarray, grid: Grid1D, order: int) -> np.ndarray:
    """Order-1 or order-2 derivative of samples along their last axis via the
    discrete Fourier transform: rfft for real values, fft for complex ones.

    The Nyquist mode is zeroed for odd orders, the standard convention that
    keeps first derivatives of real fields real. Band-limited fields are
    differentiated to spectral (near machine) accuracy. This is the hot
    path of the time steppers, so neither the order nor finiteness is
    checked here."""
    if np.iscomplexobj(values):
        return np.fft.ifft(grid.derivative_multipliers[order, False]
                           * np.fft.fft(values))
    return np.fft.irfft(grid.derivative_multipliers[order, True]
                        * np.fft.rfft(values), n=grid.n_points)


def field_norm(f) -> float:
    """Rectangle-rule L2 norm integral: sum_i |f_i|^2 dx."""
    v = f.values
    return float(np.sum(np.abs(v) ** 2) * f.grid.dx)


def integrate(values: np.ndarray, grid: Grid1D) -> float:
    """Rectangle-rule integral of samples over the periodic domain."""
    return float(np.sum(values) * grid.dx)


# --------------------------------------------------------------------------
# Physical parameters of the dual-sector pair
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DualParams:
    """Masses of the system/environment channels plus the action scale zeta.

    `masses[0]` is the system mass m0, `masses[1:]` the environment channel
    masses. The reduced mass m = (1/m0 + 1/m1)^-1 sets the kinetic scale of
    the composite pair; the residual inverse mass 1/m0 - 1/m1 measures the
    mass asymmetry and vanishes exactly in the symmetric limit m0 == m1.
    `zeta` is the one action scale every map and solver divides by; it
    plays the role of Planck's constant in the Schrodinger limit.
    """

    masses: tuple
    zeta: float = 1.0

    def __post_init__(self):
        masses = tuple(float(m) for m in self.masses)
        if len(masses) < 2:
            raise ConfigurationError("need at least masses (m0, m1)")
        if not all(0 < m < math.inf for m in masses):
            raise ConfigurationError(
                f"masses must be positive and finite, got {masses}")
        if not 0 < self.zeta < math.inf:
            raise ConfigurationError(
                f"zeta must be positive and finite, got {self.zeta}")
        object.__setattr__(self, "masses", masses)

    @property
    def m0(self) -> float:
        return self.masses[0]

    @property
    def m1(self) -> float:
        return self.masses[1]

    @property
    def reduced_mass(self) -> float:
        return 1.0 / (1.0 / self.m0 + 1.0 / self.m1)

    @property
    def kinetic_mass(self) -> float:
        """2 m_red: the wave equation's kinetic term is zeta^2 k^2 / (4 m_red),
        so its energy and probability flux carry this mass (m0 only when
        m0 == m1)."""
        return 2.0 * self.reduced_mass

    @property
    def residual_inv_mass(self) -> float:
        """1/m0 - 1/m1; exactly zero iff m0 == m1."""
        if self.m0 == self.m1:
            return 0.0
        return 1.0 / self.m0 - 1.0 / self.m1
